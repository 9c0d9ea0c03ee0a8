package graph_test

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// levelsGraph is a random symmetric graph on n nodes for the Levels property
// test: Erdős–Rényi at density p, optionally split into two parts with no edge
// between them, optionally with hubs adjacent to about half of the nodes —
// which is what puts more than half of the entries into a small ball, so that
// a later ring is found bottom-up.
func levelsGraph(rng *rand.Rand, n int, p float64, split bool, hubs int) *sparse.CSR {
	var src, dst []int
	add := func(u, v int) {
		if !split || (2*u >= n) == (2*v >= n) {
			src, dst = append(src, u), append(dst, v)
		}
	}
	for e := int(p * float64(n) * float64(n-1) / 2); e > 0; e-- {
		add(rng.Intn(n), rng.Intn(n)) // FromEdges drops loops and repeats
	}
	for h := 0; h < min(hubs, n); h++ {
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.5 {
				add(h, v)
			}
		}
	}
	return sparse.FromEdges(n, src, dst, true)
}

// TestLevelsMatchSupportingSets: over random graphs — from a single node and
// isolated edges to hub graphs whose outer rings are found bottom-up, split
// into disconnected parts or not, n on and off a multiple of 64 — with
// duplicate sources and radii from 0, every prefix ball[:ends[r]] of Levels is
// the naive reference's radius-r ball as a set, its rings are disjoint, each
// ring's count is the entries its rows hold (top-down and bottom-up, the last
// ring included), ring 0 is the sources in order of first appearance,
// every ring a dense step found is ascending, SortedBalls sorts every prefix
// into exactly that ball, so do Ball and SupportingSets, and the bitset is all
// zero after each, with buffers reused from trial to trial. Every branch runs:
// sparse top-down, dense top-down and bottom-up rings, the node-by-node and
// the wholesale clear, a merged and a swept sort.
func TestLevelsMatchSupportingSets(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var ball, ends, nnz, dst []int
	var balls [][]int
	var unmarked, cleared, merged, swept int
	steps := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		n := []int{1, 2, 63, 64, 65, 128}[trial%6]
		p := []float64{0.002, 0.01, 0.05, 0.3}[rng.Intn(4)]
		switch trial % 8 {
		case 3:
			n = 2 + rng.Intn(700)
		case 7: // a small ball in a large graph: cleared node by node
			n, p = 4000+rng.Intn(200), 1.0/4000
		}
		hubs := 0
		if trial%3 == 0 {
			hubs = 1 + rng.Intn(3)
		}
		adj := levelsGraph(rng, n, p, trial%5 == 0, hubs)
		sources := make([]int, 1+rng.Intn(5))
		for i := range sources {
			sources[i] = rng.Intn(n)
		}
		sources = append(sources, sources[0], sources[len(sources)/2]) // duplicates
		radius := rng.Intn(6)
		set := graph.NewBitset(n + 64*rng.Intn(2)) // on or past its minimum length
		for i := range set {
			if set[i] != 0 {
				t.Fatal("NewBitset is not all zero")
			}
		}

		ball, ends, nnz = graph.Levels(adj, sources, radius, set, ball, ends, nnz)
		want := graph.SeedSupportingSets(adj, sources, radius) // want[radius−r] = Ball(r)
		if got := graph.SupportingSets(adj, sources, radius); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("trial %d: SupportingSets %v, reference %v", trial, got, want)
		}
		if len(ends) != radius+1 || len(nnz) != radius+1 {
			t.Fatalf("trial %d: %d ends and %d ring counts for radius %d", trial, len(ends), len(nnz), radius)
		}
		for r := range ends {
			if ring := ball[ringStart(ends, r):ends[r]]; nnz[r] != adj.NNZRows(ring) {
				t.Fatalf("trial %d: ring %d counted %d entries, its rows hold %d", trial, r, nnz[r], adj.NNZRows(ring))
			}
		}
		var first []int
		for _, v := range sources {
			if !slices.Contains(first, v) {
				first = append(first, v)
			}
		}
		if !slices.Equal(ball[:ends[0]], first) {
			t.Fatalf("trial %d: ring 0 is %v, sources %v", trial, ball[:ends[0]], sources)
		}
		seen := map[int]bool{}
		for _, v := range ball {
			if seen[v] {
				t.Fatalf("trial %d: node %d is in two rings", trial, v)
			}
			seen[v] = true
		}
		for r, hi := range ends {
			if prefix := sorted(ball[:hi]); !slices.Equal(prefix, want[radius-r]) {
				t.Fatalf("trial %d: radius-%d prefix %v, reference %v", trial, r, prefix, want[radius-r])
			}
			if got := graph.Ball(adj, sources, r); !slices.Equal(got, want[radius-r]) {
				t.Fatalf("trial %d: Ball(%d) %v, reference %v", trial, r, got, want[radius-r])
			}
			if r == 0 {
				continue
			}
			step, _ := ringStep(adj, ends, nnz, r)
			steps[step]++
			if ring := ball[ends[r-1]:hi]; step != sparseTopDown && !slices.IsSorted(ring) {
				t.Fatalf("trial %d: ring %d, found %s, is %v: not ascending", trial, r, step, ring)
			}
		}
		requireClear(t, trial, set)
		if 8*len(ball) > (n+63)/64 {
			cleared++
		} else {
			unmarked++
		}

		rings := slices.Clone(ball)
		dst, balls = graph.SortedBalls(ball, ends, set, dst, balls)
		for r, hi := range ends {
			if !slices.Equal(balls[r], want[radius-r]) {
				t.Fatalf("trial %d: sorted radius-%d ball %v, reference %v", trial, r, balls[r], want[radius-r])
			}
			lo := ringStart(ends, r)
			ring := ball[lo:hi]
			if !slices.Equal(sorted(ring), sorted(rings[lo:hi])) {
				t.Fatalf("trial %d: SortedBalls moved nodes between rings", trial)
			}
			if len(ring)*bits.Len(uint(len(ring))) > len(set)/2 {
				swept++
			} else {
				merged++
			}
		}
		requireClear(t, trial, set)
	}
	for name, runs := range map[string]int{sparseTopDown + " ring": steps[sparseTopDown],
		denseTopDown + " ring": steps[denseTopDown], bottomUp + " ring": steps[bottomUp],
		"node-by-node clear": unmarked, "wholesale clear": cleared, "merged sort": merged, "swept sort": swept} {
		if runs == 0 {
			t.Errorf("no trial took a %s", name)
		}
	}
}

// The steps Levels finds a ring in.
const (
	sparseTopDown = "sparse top-down"
	denseTopDown  = "dense top-down"
	bottomUp      = "bottom-up"
)

// ringStep replays Levels's rule on the counts a result holds: the step ring
// r ≥ 1 was found in ("" when it was not searched for, the ball having
// stopped growing) and, for a dense step, the work it handed par.
func ringStep(adj *sparse.CSR, ends, nnz []int, r int) (string, int) {
	ballNNZ := 0
	for _, c := range nnz[:r] {
		ballNNZ += c
	}
	switch {
	case ringStart(ends, r-1) == ends[r-1] || ends[r-1] == adj.Rows:
		return "", 0
	case 2*ballNNZ > adj.NNZ():
		return bottomUp, adj.NNZ() - ballNNZ
	case nnz[r-1] >= (adj.Rows+63)/64:
		return denseTopDown, nnz[r-1]
	}
	return sparseTopDown, 0
}

// ringStart is where ring r of a Levels result begins in its ball.
func ringStart(ends []int, r int) int {
	if r <= 0 {
		return 0
	}
	return ends[r-1]
}

// sorted returns an ascending copy of nodes.
func sorted(nodes []int) []int {
	out := slices.Clone(nodes)
	slices.Sort(out)
	return out
}

func requireClear(t *testing.T, trial int, set []uint64) {
	t.Helper()
	for w, word := range set {
		if word != 0 {
			t.Fatalf("trial %d: word %d of the bitset left %#x", trial, w, word)
		}
	}
}

// FuzzLevels: over fuzzer-chosen graphs (an edge list on up to 256 nodes),
// sources and radii ≤ 5, every prefix of Levels, every ball SortedBalls sorts,
// Ball and SupportingSets are the naive reference's balls, and the bitset is
// all zero after each call.
func FuzzLevels(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, []byte{2}, uint8(2))                // a path
	f.Add(uint8(0), []byte{}, []byte{0, 0}, uint8(3))                                         // one node
	f.Add(uint8(69), []byte{0, 1, 0, 2, 0, 3, 0, 64, 0, 65, 4, 5}, []byte{1, 0, 2}, uint8(4)) // a hub: rings bottom-up
	f.Add(uint8(199), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 130, 130, 131}, []byte{9, 2, 5, 130}, uint8(5))
	// Node 0's 4 entries are the bitset's 4 words and under half of the 14:
	// ring 1 is found dense top-down, ring 2 bottom-up.
	f.Add(uint8(199), []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 100, 100, 150, 150, 199}, []byte{0}, uint8(3))
	f.Fuzz(func(t *testing.T, nodes uint8, edges, sources []byte, radius uint8) {
		n, r := 1+int(nodes), int(radius%6)
		var src, dst []int
		for i := 0; i+1 < len(edges); i += 2 {
			src, dst = append(src, int(edges[i])%n), append(dst, int(edges[i+1])%n)
		}
		adj := sparse.FromEdges(n, src, dst, true)
		targets := make([]int, len(sources))
		for i, s := range sources {
			targets[i] = int(s) % n
		}
		want := graph.SeedSupportingSets(adj, targets, r)
		set := graph.NewBitset(n)
		ball, ends, _ := graph.Levels(adj, targets, r, set, nil, nil, nil)
		requireClear(t, 0, set)
		for k, hi := range ends {
			if prefix := sorted(ball[:hi]); !slices.Equal(prefix, want[r-k]) {
				t.Fatalf("radius-%d prefix %v, reference %v", k, prefix, want[r-k])
			}
		}
		_, balls := graph.SortedBalls(ball, ends, set, nil, nil)
		requireClear(t, 0, set)
		for k, b := range balls {
			if !slices.Equal(b, want[r-k]) {
				t.Fatalf("sorted radius-%d ball %v, reference %v", k, b, want[r-k])
			}
		}
		if got := graph.SupportingSets(adj, targets, r); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("SupportingSets %v, reference %v", got, want)
		}
		if got := graph.Ball(adj, targets, r); !slices.Equal(got, want[0]) {
			t.Fatalf("Ball %v, reference %v", got, want[0])
		}
	})
}

// splitGraph is a hub graph for the dense steps' split: n off a multiple of
// 64 and large enough that a deep BFS hands par more than its threshold both
// top-down and bottom-up.
func splitGraph(seed int64) *sparse.CSR {
	const n = 30_011
	return levelsGraph(rand.New(rand.NewSource(seed)), n, 8.0/n, false, 2)
}

// splitSources is trial's sources on a splitGraph: a hub among them or not,
// from one node to a deep batch's 64.
func splitSources(rng *rand.Rand, adj *sparse.CSR, trial int) []int {
	sources := make([]int, []int{1, 8, 64}[trial%3])
	for i := range sources {
		sources[i] = rng.Intn(adj.Rows)
	}
	if trial%2 == 1 {
		sources[0] = 0
	}
	return sources
}

// TestLevelsSameAtAnyWorkerCount: on a hub graph, ball, ends and nnz are the
// same at GOMAXPROCS 1, 2, 3 and 4 — the dense steps split by the worker
// count, top-down the previous ring's rows (a chunk into the ring or, while
// another chunk holds it, into pooled words), bottom-up the ring's words,
// unevenly at 3 and in a short last word — and every ring a dense step found
// is ascending. Both dense steps hand par enough work to split.
func TestLevelsSameAtAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	adj := splitGraph(33)
	rng := rand.New(rand.NewSource(33))
	split := map[string]int{}
	for trial := 0; trial < 12; trial++ {
		sources := splitSources(rng, adj, trial)
		var ball, ends, nnz []int
		for _, procs := range []int{1, 2, 3, 4} {
			runtime.GOMAXPROCS(procs)
			b, e, c := graph.Levels(adj, sources, 5, graph.NewBitset(adj.Rows), nil, nil, nil)
			if procs == 1 {
				ball, ends, nnz = b, e, c
			} else if !slices.Equal(b, ball) || !slices.Equal(e, ends) || !slices.Equal(c, nnz) {
				t.Fatalf("trial %d: GOMAXPROCS %d found rings %v (%v entries), GOMAXPROCS 1 %v (%v)", trial, procs, e, c, ends, nnz)
			}
		}
		for r := 1; r < len(ends); r++ {
			step, work := ringStep(adj, ends, nnz, r)
			if step == "" || step == sparseTopDown {
				continue
			}
			if ring := ball[ends[r-1]:ends[r]]; !slices.IsSorted(ring) {
				t.Fatalf("trial %d: ring %d, found %s, is not ascending", trial, r, step)
			}
			if work >= par.Threshold {
				split[step]++
			}
		}
	}
	if split[denseTopDown] == 0 || split[bottomUp] == 0 {
		t.Fatalf("steps split over workers: %v; want both dense steps", split)
	}
}

// TestLevelsConcurrent: eight goroutines, each with its own bitset, run dense
// BFSes on one adjacency at once, and each gets what a serial run got. Under
// -race this checks that the workers of one BFS, and the BFSes of several,
// share nothing they write.
func TestLevelsConcurrent(t *testing.T) {
	adj := splitGraph(8)
	rng := rand.New(rand.NewSource(8))
	type result struct{ sources, ball, ends, nnz []int }
	want := make([]result, 8)
	for i := range want {
		sources := splitSources(rng, adj, i)
		ball, ends, nnz := graph.Levels(adj, sources, 4, graph.NewBitset(adj.Rows), nil, nil, nil)
		want[i] = result{sources, ball, ends, nnz}
	}
	var wg sync.WaitGroup
	for i, w := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set := graph.NewBitset(adj.Rows)
			var ball, ends, nnz []int
			for rep := 0; rep < 3; rep++ {
				ball, ends, nnz = graph.Levels(adj, w.sources, 4, set, ball, ends, nnz)
				if !slices.Equal(ball, w.ball) || !slices.Equal(ends, w.ends) || !slices.Equal(nnz, w.nnz) {
					t.Errorf("caller %d, run %d: rings %v, serial %v", i, rep, ends, w.ends)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestLevelsPanics(t *testing.T) {
	adj := sparse.FromEdges(65, []int{0}, []int{64}, true)
	for name, call := range map[string]func(){
		"negative radius": func() { graph.Levels(adj, []int{0}, -1, graph.NewBitset(65), nil, nil, nil) },
		"short set":       func() { graph.Levels(adj, []int{0}, 1, graph.NewBitset(65)[:3], nil, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkLevels times the BFS a warm request of the benchmark's shapes runs,
// on a graph generated like the benchmark fixture's (synth.ProductsLike at
// n = 100k, targets from its test split): deep is a batch_deep batch at its
// first depth — 64 targets to radius 3 (TMax 4), the radius-1 ball S sorted,
// ring 2 found dense top-down over two workers and ring 3 bottom-up; wave is
// the survivors' BFS past the layer — to radius 1, the ball sorted, its one
// ring found dense top-down below par.Threshold, inline, in about a third of
// the requests (the engine's survivor sets: a quarter of its waves); and point
// a TMax-2 read — one target to radius 1, itself sorted.
func BenchmarkLevels(b *testing.B) {
	cfg := synth.ProductsLike(1)
	cfg.N = 100_000
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	adj, test := ds.Graph.Adj, ds.Split.Test
	for _, shape := range []struct {
		name               string
		targets, radius, k int
	}{{"deep", 64, 3, 1}, {"wave", 64, 1, 1}, {"point", 1, 1, 0}} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			reqs := make([][]int, 64)
			for i := range reqs {
				reqs[i] = make([]int, shape.targets)
				for j := range reqs[i] {
					reqs[i][j] = test[rng.Intn(len(test))]
				}
			}
			set := graph.NewBitset(adj.Rows)
			var ball, ends, nnz, dst []int
			var balls [][]int
			nodes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ball, ends, nnz = graph.Levels(adj, reqs[i%len(reqs)], shape.radius, set, ball, ends, nnz)
				dst, balls = graph.SortedBalls(ball, ends[:shape.k+1], set, dst, balls)
				nodes += len(ball)
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "ball-nodes/op")
		})
	}
}
