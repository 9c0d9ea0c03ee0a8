package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/sparse"
)

// inferOpts are the operating points every equivalence test sweeps: all
// three NAP modes at full depth plus a truncated-depth distance point.
func inferOpts(m *core.Model) []core.InferenceOptions {
	return []core.InferenceOptions{
		{Mode: core.ModeFixed, TMin: 1, TMax: m.K},
		{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K},
		{Mode: core.ModeDistance, Ts: 0.5, TMin: 1, TMax: 2},
		{Mode: core.ModeGate, TMin: 1, TMax: m.K},
	}
}

// requireSameAnswers runs every operating point through the router and the
// unsharded deployment and requires bit-identical predictions and depths.
func requireSameAnswers(t *testing.T, tag string, rt *Router, dep *core.Deployment, targets []int) {
	t.Helper()
	for oi, opt := range inferOpts(rt.model) {
		want, err := dep.Infer(targets, opt)
		if err != nil {
			t.Fatalf("%s opt%d: unsharded: %v", tag, oi, err)
		}
		got, err := rt.Infer(targets, opt)
		if err != nil {
			t.Fatalf("%s opt%d: sharded: %v", tag, oi, err)
		}
		for i := range targets {
			if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
				t.Fatalf("%s opt%d target %d: sharded (%d,%d) != unsharded (%d,%d)",
					tag, oi, targets[i], got.Pred[i], got.Depths[i], want.Pred[i], want.Depths[i])
			}
		}
		for l := range want.NodesPerDepth {
			if got.NodesPerDepth[l] != want.NodesPerDepth[l] {
				t.Fatalf("%s opt%d: depth histogram %v != %v", tag, oi, got.NodesPerDepth, want.NodesPerDepth)
			}
		}
	}
}

// TestShardedEquivalence: for P ∈ {1,2,4} and both partition strategies,
// sharded answers must be bit-identical to the single-deployment engine on
// every operating point.
func TestShardedEquivalence(t *testing.T) {
	ds, m := fixture(t)
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{StrategyBFS, StrategyContiguous} {
		for _, p := range []int{1, 2, 4} {
			rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: p, Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			requireSameAnswers(t, fmt.Sprintf("%v/P=%d", strat, p), rt, dep, ds.Split.Test)
		}
	}
}

// testDeltas is a staged mutation sequence exercising the routing edge
// cases: cross-shard edges, a batch of new nodes chained to each other, an
// isolated arrival, and a delta repeating edges (also reversed) within
// itself.
func testDeltas(g *graph.Graph, rng *rand.Rand) []graph.Delta {
	n := g.N()
	f := g.F()
	return []graph.Delta{
		{ // edges only, spread across the id space (likely cross-shard)
			Src: []int{0, 1, n / 2, n - 1},
			Dst: []int{n - 1, n / 2, n - 2, 2},
		},
		{ // three new nodes: chained to each other and into the graph
			Features: mat.Randn(3, f, 1, rng),
			Labels:   []int{0, 1, 0},
			Src:      []int{n, n + 1, n + 2, n},
			Dst:      []int{5, n, 7, n + 2},
		},
		{ // an isolated node: no edges at all
			Features: mat.Randn(1, f, 1, rng),
			Labels:   []int{1},
		},
		{ // repeated and reversed-duplicate edges, plus one already present
			Src: []int{3, 3, 8, 0},
			Dst: []int{8, 8, 3, n - 1},
		},
	}
}

// TestShardedDeltaEquivalence: after every delta stage, the sharded system
// must keep answering bit-identically to an unsharded deployment that
// absorbed the same deltas — including for the appended nodes.
func TestShardedDeltaEquivalence(t *testing.T) {
	ds, m := fixture(t)
	rng := rand.New(rand.NewSource(99))
	deltas := testDeltas(ds.Graph, rng)
	for _, p := range []int{2, 4} {
		dep, err := core.NewDeployment(m, ds.Graph.Clone())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		for di, d := range deltas {
			wantDR, err := dep.ApplyDelta(d.Clone())
			if err != nil {
				t.Fatalf("P=%d delta %d: unsharded: %v", p, di, err)
			}
			gotDR, err := rt.ApplyDelta(d.Clone())
			if err != nil {
				t.Fatalf("P=%d delta %d: sharded: %v", p, di, err)
			}
			if gotDR.FirstNew != wantDR.FirstNew || gotDR.NumNew != wantDR.NumNew ||
				len(gotDR.Dirty) != len(wantDR.Dirty) {
				t.Fatalf("P=%d delta %d: delta reports differ: %+v vs %+v", p, di, gotDR, wantDR)
			}
			targets := ds.Split.Test
			for v := ds.Graph.N(); v < dep.Graph.N(); v++ {
				targets = append(targets, v) // appended nodes are served too
			}
			requireSameAnswers(t, fmt.Sprintf("P=%d after delta %d", p, di), rt, dep, targets)
		}
	}
}

// TestIncrementalMatchesRebuild pins the incremental delta path hard: after
// the full delta sequence, every shard's local state — universe, distances,
// raw subgraph, normalized adjacency and stationary view — must be
// bit-identical (up to the local id permutation, since arrivals are
// appended rather than re-sorted) to a router freshly built over the merged
// graph with the same ownership.
func TestIncrementalMatchesRebuild(t *testing.T) {
	ds, m := fixture(t)
	rng := rand.New(rand.NewSource(99))
	rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testDeltas(ds.Graph, rng) {
		if _, err := rt.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}

	asg := &Assignment{P: len(rt.shards), Owner: append([]int32(nil), rt.owner...),
		Owned: make([][]int, len(rt.shards))}
	for v, p := range rt.owner {
		asg.Owned[p] = append(asg.Owned[p], v)
	}
	merged := rt.global.Clone()
	fresh, err := newRouter(m, merged,
		core.ComputeStationary(merged.Adj, merged.Features, m.Gamma), asg, rt.radius, Config{})
	if err != nil {
		t.Fatal(err)
	}

	if rt.st.Scale != fresh.st.Scale {
		t.Fatalf("global scale %v != fresh %v", rt.st.Scale, fresh.st.Scale)
	}
	for c, v := range fresh.st.WeightedSum {
		if rt.st.WeightedSum[c] != v {
			t.Fatalf("weighted sum column %d: %v != %v", c, rt.st.WeightedSum[c], v)
		}
	}

	for p, s := range rt.shards {
		fs := fresh.shards[p]
		w, fw := rt.localWorker(p), fresh.localWorker(p)
		if len(s.universe) != len(fs.universe) {
			t.Fatalf("shard %d: universe size %d != fresh %d", p, len(s.universe), len(fs.universe))
		}
		for lv, v := range s.universe {
			flv := fs.toLocal[v]
			if flv < 0 {
				t.Fatalf("shard %d: node %d missing from fresh universe", p, v)
			}
			if s.dist[lv] != fs.dist[flv] {
				t.Fatalf("shard %d node %d: dist %d != fresh %d", p, v, s.dist[lv], fs.dist[flv])
			}
			if w.st.LoopedDeg[lv] != fw.st.LoopedDeg[flv] {
				t.Fatalf("shard %d node %d: looped degree %v != fresh %v",
					p, v, w.st.LoopedDeg[lv], fw.st.LoopedDeg[flv])
			}
			for c := 0; c < ds.Graph.F(); c++ {
				if w.dep.Graph.Features.At(lv, c) != fw.dep.Graph.Features.At(int(flv), c) {
					t.Fatalf("shard %d node %d: feature %d differs", p, v, c)
				}
			}
			// Raw and normalized rows, compared entry-by-entry in global ids:
			// the normalized one as the deployment's operator emits it.
			var row, frow sparse.CSR
			w.dep.Adj.RowsInto([]int{lv}, nil, 1, &row)
			fw.dep.Adj.RowsInto([]int{int(flv)}, nil, 1, &frow)
			for _, u := range s.universe {
				lu, flu := int(s.toLocal[u]), int(fs.toLocal[u])
				if got, want := w.dep.Graph.Adj.At(lv, lu), fw.dep.Graph.Adj.At(int(flv), flu); got != want {
					t.Fatalf("shard %d raw (%d,%d): %v != fresh %v", p, v, u, got, want)
				}
				if got, want := row.At(0, lu), frow.At(0, flu); got != want {
					t.Fatalf("shard %d normalized (%d,%d): %v != fresh %v", p, v, u, got, want)
				}
			}
		}
	}
}

// TestRouterConcurrentInfer hammers one router from concurrent goroutines
// (the serving read-path contract); run under -race in CI.
func TestRouterConcurrentInfer(t *testing.T) {
	ds, m := fixture(t)
	rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K}
	want, err := dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				got, err := rt.Infer(ds.Split.Test, opt)
				if err != nil {
					errs <- err
					return
				}
				for i := range want.Pred {
					if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
						errs <- fmt.Errorf("worker %d: answer drifted at %d", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
