package par

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// coverage runs the given fan-out and checks that [0, n) is covered exactly
// once using an atomic per-slot counter (also exercises -race). It reports
// with t.Errorf, so goroutines other than the test's may call it.
func coverage(t *testing.T, n int, run func(fn func(lo, hi int))) {
	t.Helper()
	hits := make([]int32, n)
	run(func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			return
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Errorf("n=%d: item %d visited %d times", n, i, h)
			return
		}
	}
}

func TestForCoversRangeExactly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1000} {
		for _, work := range []int{0, Threshold - 1, Threshold, 1 << 20} {
			coverage(t, n, func(fn func(lo, hi int)) { For(n, work, fn) })
		}
	}
}

func TestForWeightedCoversRangeExactly(t *testing.T) {
	weights := []func(int) int{
		func(int) int { return 1 },
		func(i int) int { return i * i },       // heavily skewed
		func(i int) int { return (i % 7) * 3 }, // zeros mixed in
		func(int) int { return 0 },             // all-zero weights
	}
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1000} {
		for _, w := range weights {
			total := 0
			for i := 0; i < n; i++ {
				total += w(i)
			}
			// both the summed-here and precomputed-total paths must cover
			coverage(t, n, func(fn func(lo, hi int)) { ForWeighted(n, 1<<20, -1, w, fn) })
			coverage(t, n, func(fn func(lo, hi int)) { ForWeighted(n, 1<<20, total, w, fn) })
		}
	}
}

func TestForSmallWorkRunsInline(t *testing.T) {
	calls := 0
	For(100, 10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("inline run got chunk [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("inline run made %d calls", calls)
	}
}

func TestForWeightedBalancesSkew(t *testing.T) {
	// One giant item at the end: the weighted split must not lump every
	// light item with it into a single chunk's worth of imbalance beyond
	// target + max item weight.
	n := 1024
	weight := func(i int) int {
		if i == n-1 {
			return 1 << 14
		}
		return 1
	}
	for _, workers := range []int{2, 4, 8} {
		var chunks int32
		forWeighted(n, workers, 1<<20, -1, weight, func(lo, hi int) { atomic.AddInt32(&chunks, 1) })
		if chunks < 2 {
			t.Fatalf("%d workers: skewed weights produced %d chunk(s)", workers, chunks)
		}
	}
	// One worker — a single-CPU host — runs the whole range inline.
	calls := 0
	forWeighted(n, 1, 1<<20, -1, weight, func(lo, hi int) {
		if calls++; lo != 0 || hi != n {
			t.Fatalf("one worker got chunk [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("one worker made %d calls", calls)
	}
}

// TestSplitWeightedProperties checks the split itself over random weight
// vectors and injected worker counts (so the property does not depend on the
// host's GOMAXPROCS): chunks are non-empty, contiguous and cover [0, n)
// exactly once; none weighs more than max(target, heaviest item); work that
// can be divided is divided — whenever the total exceeds what one chunk may
// hold, there is more than one chunk; and at unit weights (For's) every chunk
// is ⌈n/parts⌉ items wide but the last.
func TestSplitWeightedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	shapes := []func(i, n int) int{
		func(int, int) int { return rng.Intn(8) },       // light, zeros mixed in
		func(int, int) int { return 1 + rng.Intn(3) },   // near-uniform
		func(int, int) int { return rng.Intn(1 << 12) }, // wide
		func(i, n int) int { // power law: a few hubs anywhere in the range
			if rng.Intn(64) == 0 {
				return 1 << (8 + rng.Intn(8))
			}
			return 1 + rng.Intn(4)
		},
		func(i, n int) int { // one trailing hub (the case the old split serialized)
			if i == n-1 {
				return 1 << 14
			}
			return 1
		},
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(2000)
		ws := make([]int, n)
		total, heaviest := 0, 0
		shape := shapes[trial%len(shapes)]
		for i := range ws {
			ws[i] = shape(i, n)
			total += ws[i]
			heaviest = max(heaviest, ws[i])
		}
		for workers := 1; workers <= 64; workers++ {
			target := max((total+workers-1)/workers, 1)
			limit := max(target, heaviest)
			next, chunks := 0, 0
			splitWeighted(n, workers, total, func(i int) int { return ws[i] }, func(lo, hi int) {
				if lo != next || hi <= lo || hi > n {
					t.Fatalf("n=%d workers=%d: chunk [%d,%d) after %d", n, workers, lo, hi, next)
				}
				sum := 0
				for _, w := range ws[lo:hi] {
					sum += w
				}
				if sum > limit {
					t.Fatalf("n=%d workers=%d: chunk [%d,%d) weighs %d > max(target %d, item %d)",
						n, workers, lo, hi, sum, target, heaviest)
				}
				next = hi
				chunks++
			})
			if next != n {
				t.Fatalf("n=%d workers=%d: chunks end at %d", n, workers, next)
			}
			if total > limit && chunks < 2 {
				t.Fatalf("n=%d workers=%d: total %d > limit %d in one chunk", n, workers, total, limit)
			}
			if chunks > 2*workers+1 {
				t.Fatalf("n=%d workers=%d: %d chunks", n, workers, chunks)
			}
			width, next := (n+workers-1)/workers, 0
			splitWeighted(n, workers, n, unit, func(lo, hi int) {
				if lo != next || hi-lo != width && (hi != n || hi <= lo || hi-lo > width) {
					t.Fatalf("n=%d parts=%d: unit-weight chunk [%d,%d) after %d, want %d wide", n, workers, lo, hi, next, width)
				}
				next = hi
			})
			if next != n {
				t.Fatalf("n=%d parts=%d: unit-weight chunks end at %d", n, workers, next)
			}
		}
	}
}

// width sets GOMAXPROCS to procs for the rest of the test, so the helper
// tests fan out even where the suite runs at GOMAXPROCS 1.
func width(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// waitIdle waits until no helper is live, failing after a deadline far past
// linger.
func waitIdle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for live.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still live 10 s after the last fan-out", live.Load())
		}
		runtime.Gosched()
	}
}

// fanOuts runs one For or ForWeighted fan-out of each shape, in an order
// picked by seed, checking each covers its range exactly once.
func fanOuts(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, k := range rng.Perm(6) {
		n := []int{2, 3, 17, 100, 1000, 4096}[k]
		if k%2 == 0 {
			coverage(t, n, func(fn func(lo, hi int)) { For(n, Threshold, fn) })
		} else {
			coverage(t, n, func(fn func(lo, hi int)) {
				ForWeighted(n, Threshold, -1, func(i int) int { return 1 + i%5 }, fn)
			})
		}
	}
}

// TestConcurrentFanOuts has 8 goroutines make interleaved For and
// ForWeighted fan-outs, which the same helpers serve: each covers its range
// exactly once, and no more than GOMAXPROCS−1 helpers are ever live.
func TestConcurrentFanOuts(t *testing.T) {
	width(t, 4)
	waitIdle(t)
	var over atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				fanOuts(t, int64(g*100+round))
				if k := live.Load(); k > 3 {
					over.Store(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if k := over.Load(); k != 0 {
		t.Fatalf("%d helpers live at GOMAXPROCS 4", k)
	}
}

// TestNestedFanOut fans out again inside every chunk of a fan-out: both
// levels complete and cover their ranges, whichever goroutine ran the outer
// chunk.
func TestNestedFanOut(t *testing.T) {
	width(t, 4)
	coverage(t, 64, func(outer func(lo, hi int)) {
		For(64, Threshold, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				coverage(t, 100+i, func(inner func(lo, hi int)) { For(100+i, Threshold, inner) })
			}
			outer(lo, hi)
		})
	})
}

// TestHelpersExit checks a helper's lifetime: a fan-out has its helpers
// enlisted before it runs a chunk, and once fan-outs stop every helper
// returns by itself.
func TestHelpersExit(t *testing.T) {
	width(t, 2)
	for round := 0; round < 3; round++ {
		var seen atomic.Bool
		coverage(t, 1000, func(fn func(lo, hi int)) {
			For(1000, Threshold, func(lo, hi int) {
				if live.Load() > 0 {
					seen.Store(true)
				}
				fn(lo, hi)
			})
		})
		if !seen.Load() {
			t.Fatalf("round %d: no helper live during a fan-out at GOMAXPROCS 2", round)
		}
		waitIdle(t)
	}
}

// TestWidthChangeBetweenFanOuts changes GOMAXPROCS between fan-outs while
// helpers of the previous width may still be live: every fan-out still
// covers its range exactly once.
func TestWidthChangeBetweenFanOuts(t *testing.T) {
	for i, procs := range []int{4, 1, 3, 2, 4} {
		width(t, procs)
		fanOuts(t, int64(i))
	}
}

// BenchmarkFanOut times a fan-out of two chunks of ≈ 20 µs of arithmetic
// each after a gap with no fan-out. In serial=100µs the calling goroutine
// computes through the gap, as between a request's hops, and the helper is
// still polling when the fan-out comes; in serial=2ms it has returned, so
// the fan-out starts another. In blocked=100µs the caller sleeps through the
// gap, and the OS may wake it on the CPU the polling helper holds. over-µs is
// the fan-out's wall time beyond the chunks' own — one chunk's time when two
// processors run the two, both chunks' at GOMAXPROCS 1. ns/op includes the
// gap.
func BenchmarkFanOut(b *testing.B) {
	iters := calibrate(20 * time.Microsecond)
	chunk := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			spin(iters)
		}
	}
	solo := medianTime(func() { chunk(0, 1) })
	ideal := 2 * solo / time.Duration(min(runtime.GOMAXPROCS(0), 2))
	serial := func(d time.Duration) {
		for t0 := time.Now(); time.Since(t0) < d; {
		}
	}
	for _, gap := range []struct {
		name string
		wait func(time.Duration)
		d    time.Duration
	}{
		{"serial", serial, 100 * time.Microsecond},
		{"serial", serial, 2 * time.Millisecond},
		{"blocked", time.Sleep, 100 * time.Microsecond},
	} {
		b.Run(fmt.Sprintf("%s=%v", gap.name, gap.d), func(b *testing.B) {
			var spent time.Duration
			for i := 0; i < b.N; i++ {
				gap.wait(gap.d)
				t0 := time.Now()
				For(2, Threshold, chunk)
				spent += time.Since(t0)
			}
			b.ReportMetric(float64(solo.Nanoseconds())/1e3, "chunk-µs")
			b.ReportMetric(float64((spent/time.Duration(b.N)-ideal).Nanoseconds())/1e3, "over-µs")
		})
	}
}

// spinSink keeps spin's arithmetic live.
var spinSink atomic.Uint64

// spin does iters rounds of dependent integer arithmetic.
func spin(iters int) {
	x := uint64(iters)
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink.Add(x)
}

// calibrate returns the spin count that takes about d.
func calibrate(d time.Duration) int {
	iters := 1 << 10
	for medianTime(func() { spin(iters) }) < d {
		iters *= 2
	}
	return int(float64(iters) * float64(d) / float64(medianTime(func() { spin(iters) })))
}

// medianTime is the median wall time of 15 calls of fn.
func medianTime(fn func()) time.Duration {
	ts := make([]time.Duration, 15)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0)
	}
	slices.Sort(ts)
	return ts[len(ts)/2]
}
