// Package par provides the one worker fan-out shared by every dense and
// sparse kernel in the repository (GEMM, SpMM, row-subset SpMM, the BFS's
// dense rings). It exists so the parallel split lives in exactly one place
// instead of being hand-rolled per kernel, and so all kernels agree on when
// parallelism is worth a fan-out.
//
// There is one split rule: ForWeighted cuts [0, n) into contiguous chunks of
// about equal weight, a few per worker, and For is ForWeighted with every
// item weighing one, so its chunks are equally wide. A fan-out publishes its
// chunks, and they are claimed one at a time through an atomic counter: the
// calling goroutine works through the chunks itself while helper goroutines
// claim the rest. Chunks never overlap and cover the range exactly, and
// their boundaries are a function of n, the weights and GOMAXPROCS alone —
// never of which goroutine ran which chunk — so per-item output slots are
// written by exactly one goroutine and results are bit-identical to a
// serial run regardless of the split.
//
// A helper is a goroutine that claims chunks from any open fan-out. A
// fan-out starts one only while fewer than min(GOMAXPROCS−1, chunks−1) are
// live. After its last chunk a helper keeps polling for the next fan-out
// for linger, yielding its processor between polls, and then returns, so a
// steady stream of fan-outs finds its helpers already running and an idle
// process holds none. There is no pool to start or stop: the caller never
// waits on a helper that has not started — it runs every chunk nobody else
// claimed, then waits only for chunks already running.
package par

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Threshold is the approximate scalar-op count below which fan-out is
// skipped: under it, publishing chunks and handing them to a helper cost
// more than the helper saves.
const Threshold = 1 << 15

// chunksPerWorker is how many chunks a fan-out cuts per worker, so that a
// helper that starts late or is busy elsewhere leaves its share to whoever
// is free instead of holding the caller up for a whole worker's share.
const chunksPerWorker = 4

// linger is how long a helper keeps polling after its last chunk. A warm
// request's fan-outs come a few hundred µs apart, and waking an idle
// processor costs tens of µs, so a helper that stays runnable this long
// meets the next fan-out running. The price is paid once fan-outs stop: a
// helper polls for linger after the last one, and the process's CPU time
// over the idle second after a warm deep request grows by that and by
// 0.4–0.8 ms more, a part that stops growing with linger past 0.25 ms and
// whose cause is not known (BenchmarkInferDeepIdle in internal/core).
const linger = 500 * time.Microsecond

// For is ForWeighted with every item weighing one: it splits [0, n) into a
// few chunks per worker, each ⌈n/chunks⌉ items wide but the last, and runs fn
// on each.
func For(n, work int, fn func(lo, hi int)) {
	ForWeighted(n, work, n, unit, fn)
}

// unit is For's weight: every item alike.
func unit(int) int { return 1 }

// ForWeighted splits [0, n) into contiguous chunks of approximately equal
// total weight(i), a few per worker, and runs fn on each chunk, on the calling
// goroutine and on helpers. Use it when per-item cost is skewed (e.g. CSR
// rows whose degree follows a power law), where an even item split would
// leave most workers idle behind the heaviest chunk. work is the caller's
// estimate of total scalar operations; when it is under Threshold, or only
// one CPU is available, fn runs inline on the whole range. total is the
// precomputed sum of weight over [0, n) when the caller already holds it
// (e.g. a matrix's nnz); pass a negative value to have it summed here.
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
	parts := chunksPerWorker * workers
	bounds := make([]int, 0, 2*parts+2)
	splitWeighted(n, parts, total, weight, func(lo, hi int) { bounds = append(bounds, lo) })
	run(workers, append(bounds, n), fn)
}

// splitWeighted cuts [0, n) into contiguous non-empty chunks for the given
// part count and calls emit on each, in order. The target chunk weight is
// ⌈total/parts⌉. A chunk is closed once it reaches the target, and also
// *before* an item that would push a non-empty chunk past it — so a heavy
// item never drags the light items ahead of it into its chunk, and no chunk
// weighs more than max(target, heaviest item). Closing early can yield a few
// more chunks than parts (fewer than 2·parts+1); they are claimed one at a
// time, so the surplus only evens the load.
func splitWeighted(n, parts, total int, weight func(i int) int, emit func(lo, hi int)) {
	target := (total + parts - 1) / parts
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

// fanOut is one call's published chunks: chunk i is [bounds[i], bounds[i+1]).
type fanOut struct {
	fn     func(lo, hi int)
	bounds []int
	next   atomic.Int64 // the next chunk to claim; ≥ chunks once all are
	done   atomic.Int64 // chunks finished
}

func (f *fanOut) chunks() int64 { return int64(len(f.bounds) - 1) }

// step claims the next chunk and runs it; it reports false once none is left.
func (f *fanOut) step() bool {
	i := f.next.Add(1) - 1
	if i >= f.chunks() {
		return false
	}
	f.fn(f.bounds[i], f.bounds[i+1])
	f.done.Add(1)
	return true
}

// The open fan-outs and the live helpers are process-wide, so every caller's
// fan-outs share the helpers.
var (
	mu    sync.Mutex
	open  []*fanOut    // fan-outs that may hold unclaimed chunks, oldest first
	nOpen atomic.Int32 // len(open), polled by helpers without mu
	live  atomic.Int32 // helpers running
)

// run publishes bounds' chunks, makes sure up to workers−1 helpers are live,
// runs every chunk nobody else claims and returns once all have finished.
// A chunk that fans out again is a caller of its own fan-out, so nesting
// completes: each caller waits only for chunks already running.
func run(workers int, bounds []int, fn func(lo, hi int)) {
	f := &fanOut{fn: fn, bounds: bounds}
	mu.Lock()
	open = append(open, f)
	nOpen.Store(int32(len(open)))
	mu.Unlock()
	defer retire(f)
	for want := min(workers, len(bounds)-1) - 1; enlist(want); {
		go helper()
	}
	for f.step() {
	}
	for f.done.Load() < f.chunks() {
		runtime.Gosched()
	}
}

// retire withdraws f: no chunk of it is claimed after this (a caller that
// panicked leaves the rest unrun), and it leaves open if still there.
func retire(f *fanOut) {
	f.next.Store(f.chunks())
	mu.Lock()
	defer mu.Unlock()
	if i := slices.Index(open, f); i >= 0 {
		open = slices.Delete(open, i, i+1)
	}
	nOpen.Store(int32(len(open)))
}

// enlist counts one more live helper if fewer than limit are live.
func enlist(limit int) bool {
	for {
		k := live.Load()
		if int(k) >= limit {
			return false
		}
		if live.CompareAndSwap(k, k+1) {
			return true
		}
	}
}

// helper runs chunks of any open fan-out until none has come for linger.
func helper() {
	idle := time.Now()
	for {
		if f := take(); f != nil {
			for f.step() {
			}
			idle = time.Now()
			continue
		}
		if time.Since(idle) < linger {
			runtime.Gosched()
			continue
		}
		live.Add(-1)
		// A fan-out published since the last poll may have counted this
		// helper live and started none: stay for it if there is room.
		if nOpen.Load() == 0 || !enlist(runtime.GOMAXPROCS(0)-1) {
			return
		}
		idle = time.Now()
	}
}

// take returns the oldest open fan-out with a chunk left to claim, dropping
// the exhausted ones it passes, or nil.
func take() *fanOut {
	if nOpen.Load() == 0 {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	for len(open) > 0 {
		if f := open[0]; f.next.Load() < f.chunks() {
			return f
		}
		open = slices.Delete(open, 0, 1)
		nOpen.Store(int32(len(open)))
	}
	return nil
}
