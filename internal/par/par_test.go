package par

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// coverage runs the given fan-out and checks that [0, n) is covered exactly
// once using an atomic per-slot counter (also exercises -race).
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
			t.Fatalf("item %d visited %d times", i, h)
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
// exactly once; none weighs more than max(target, heaviest item); and work
// that can be divided is divided — whenever the total exceeds what one chunk
// may hold, there is more than one chunk.
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
		}
	}
}
