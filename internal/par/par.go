// Package par provides the one worker fan-out shared by every dense and
// sparse kernel in the repository (GEMM, SpMM, row-subset SpMM). It exists
// so the parallel split lives in exactly one place instead of being
// hand-rolled per kernel, and so all kernels agree on when parallelism is
// worth the goroutine overhead.
//
// Both entry points partition [0, n) into contiguous chunks and run the
// chunk callback concurrently. Chunks never overlap and cover the range
// exactly, so per-item output slots are written by exactly one goroutine
// and results are bit-identical to a serial run regardless of the split.
package par

import (
	"runtime"
	"sync"
)

// Threshold is the approximate scalar-op count below which fan-out is
// skipped: under it, goroutine startup dominates the work itself.
const Threshold = 1 << 15

// For splits [0, n) into one contiguous chunk per worker and runs fn on
// each chunk. work is the caller's estimate of total scalar operations;
// when it is under Threshold, or only one CPU is available, fn runs inline
// on the whole range.
func For(n, work int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := maxWorkers(n)
	if work < Threshold || workers < 2 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if hi == n {
			// The final chunk runs inline: the calling goroutine would
			// otherwise just block in Wait.
			fn(lo, hi)
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForWeighted splits [0, n) into contiguous chunks of approximately equal
// total weight(i) and runs fn on each chunk. Use it when per-item cost is
// skewed (e.g. CSR rows whose degree follows a power law), where an even
// item split would leave most workers idle behind the heaviest chunk.
// work has the same meaning as in For. total is the precomputed sum of
// weight over [0, n) when the caller already holds it (e.g. a matrix's
// nnz); pass a negative value to have it summed here.
func ForWeighted(n, work, total int, weight func(i int) int, fn func(lo, hi int)) {
	forWeighted(n, maxWorkers(n), work, total, weight, fn)
}

// forWeighted is ForWeighted for a given worker count (tests inject one, so
// what they check does not depend on the host's GOMAXPROCS).
func forWeighted(n, workers, work, total int, weight func(i int) int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if work < Threshold || workers < 2 {
		fn(0, n)
		return
	}
	if total < 0 {
		total = 0
		for i := 0; i < n; i++ {
			total += weight(i)
		}
	}
	var wg sync.WaitGroup
	splitWeighted(n, workers, total, weight, func(lo, hi int) {
		if hi == n {
			// The final chunk runs inline: the calling goroutine would
			// otherwise just block in Wait.
			fn(lo, hi)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	})
	wg.Wait()
}

// splitWeighted cuts [0, n) into contiguous non-empty chunks for the given
// worker count and calls emit on each, in order. The target chunk weight is
// ⌈total/workers⌉. A chunk is closed once it reaches the target, and also
// *before* an item that would push a non-empty chunk past it — so a heavy
// item never drags the light items ahead of it into its chunk, and no chunk
// weighs more than max(target, heaviest item). Closing early can yield a few
// more chunks than workers (fewer than 2·workers+1); they are goroutines, not
// threads, so the surplus only evens the load.
func splitWeighted(n, workers, total int, weight func(i int) int, emit func(lo, hi int)) {
	target := (total + workers - 1) / workers
	if target < 1 {
		target = 1
	}
	lo, acc := 0, 0
	for i := 0; i < n; i++ {
		w := weight(i)
		if acc > 0 && acc+w > target {
			emit(lo, i)
			lo, acc = i, 0
		}
		acc += w
		if acc >= target && i < n-1 {
			emit(lo, i+1)
			lo, acc = i+1, 0
		}
	}
	emit(lo, n)
}

func maxWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	return w
}

// ColBlockBytes bounds the bytes of one dense-row segment touched per CSR
// row by the blocked SpMM kernels: the destination segment and every gathered
// source segment stay within an L1-sized footprint, so one block pass over a
// CSR row never cycles its own working set out of cache. Kernels agree on
// the budget here for the same reason they agree on Threshold.
const ColBlockBytes = 16 << 10

// ColBlock returns the dense-column block width for a cache-blocked
// sparse×dense pass over rows of elemSize-byte elements: the full width when
// a whole row already fits the ColBlockBytes budget (the common case for
// narrow feature matrices — blocking then degenerates to the unblocked
// kernel), otherwise the widest span that fits, floored so the inner loops
// stay long enough to amortize the per-block row walk.
func ColBlock(cols, elemSize int) int {
	if cols <= 0 || elemSize <= 0 {
		return cols
	}
	bw := ColBlockBytes / elemSize
	if bw >= cols {
		return cols
	}
	if bw < 16 {
		bw = 16
	}
	return bw
}
