package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
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
// unsharded deployment and requires bit-identical predictions, depths and
// depth histogram, equal target counts, no books kept by the router and
// Books of its depths equal to the deployment's MACs: the router's one call
// runs the unsharded batch.
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
		books, err := dep.Books(targets, opt, got.Depths)
		if err != nil {
			t.Fatalf("%s opt%d: books: %v", tag, oi, err)
		}
		if got.MACs != (core.MACBreakdown{}) || books != want.MACs || got.NumTargets != want.NumTargets {
			t.Fatalf("%s opt%d: sharded MACs %+v, books %+v over %d targets; unsharded %+v over %d",
				tag, oi, got.MACs, books, got.NumTargets, want.MACs, want.NumTargets)
		}
	}
}

// TestShardedEquivalence: for P ∈ {1,2,4}, sharded answers must be
// bit-identical to the single-deployment engine on every operating point.
func TestShardedEquivalence(t *testing.T) {
	ds, m := fixture(t)
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnswers(t, fmt.Sprintf("P=%d", p), rt, dep, ds.Split.Test)
	}
}

// inferCounter records the worker every Infer transport call reaches.
type inferCounter struct {
	Transport
	mu    sync.Mutex
	calls []int
}

func (c *inferCounter) Infer(ctx context.Context, i int, req *InferRequest) (*core.Result, error) {
	c.mu.Lock()
	c.calls = append(c.calls, i)
	c.mu.Unlock()
	return c.Transport.Infer(ctx, i, req)
}

// TestRouterOneCallPerRequest pins the routing contract: for P ∈ {1,2,4},
// each request makes exactly one Infer transport call, consecutive calls
// rotate over the up workers, and every answer equals the unsharded
// deployment's. With worker 1 marked down, the rotation skips it.
func TestRouterOneCallPerRequest(t *testing.T) {
	ds, m := fixture(t)
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// rotates reports whether calls visit the workers in up, in order, as a
	// cycle from wherever it starts.
	rotates := func(calls, up []int) bool {
		start := slices.Index(up, calls[0])
		for k, c := range calls {
			if start < 0 || c != up[(start+k)%len(up)] {
				return false
			}
		}
		return true
	}
	targets := ds.Split.Test
	for _, p := range []int{1, 2, 4} {
		workers := make([]*Worker, p)
		for i := range workers {
			if workers[i], err = NewWorker(m, ds.Graph.Clone(), Config{}, i); err != nil {
				t.Fatal(err)
			}
		}
		ctr := &inferCounter{Transport: NewLocalTransport(workers)}
		rt, err := NewRouterTransport(m, ds.Graph.Clone(), Config{Shards: p}, ctr)
		if err != nil {
			t.Fatal(err)
		}
		up := make([]int, p)
		for i := range up {
			up[i] = i
		}
		for round := 0; round < 2; round++ {
			ctr.calls = nil
			tag := fmt.Sprintf("P=%d up %v", p, up)
			for range p {
				requireSameAnswers(t, tag, rt, dep, targets) // one request per operating point
			}
			if n := p * len(inferOpts(m)); len(ctr.calls) != n || !rotates(ctr.calls, up) {
				t.Fatalf("%s: %d requests reached workers %v, want one call each rotating over %v", tag, n, ctr.calls, up)
			}
			if p < 4 {
				break
			}
			// Take worker 1 out of rotation: it is never tried while the
			// others answer.
			rt.endpoints[1].record(fmt.Errorf("marked down"))
			up = []int{0, 2, 3}
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// testDeltas is a staged mutation sequence exercising the delta edge
// cases: edges across the id space, a batch of new nodes chained to each
// other, an isolated arrival, and a delta repeating edges (also reversed)
// within itself.
func testDeltas(g *graph.Graph, rng *rand.Rand) []graph.Delta {
	n := g.N()
	f := g.F()
	return []graph.Delta{
		{ // edges only, spread across the id space
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

// TestIncrementalMatchesRebuild pins the delta path hard: over the delta
// sequence, with worker 1 restarted from a fresh bootstrap mid-sequence and
// healed by replay, the router's adjacency and every worker's graph must end
// equal bit for bit to a reference graph that absorbed the same deltas
// through graph.ApplyDelta, and every worker's answers — predictions, depths,
// depth histogram and the MACs Infer books — must equal a deployment freshly
// built over that reference.
func TestIncrementalMatchesRebuild(t *testing.T) {
	ds, m := fixture(t)
	const p = 3
	rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: p})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph.Clone()
	workers := rt.transport.(*LocalTransport).workers
	for di, d := range testDeltas(ds.Graph, rand.New(rand.NewSource(99))) {
		if di == 2 {
			if workers[1], err = NewWorker(m, ds.Graph, Config{Shards: p}, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.ApplyDelta(d); err != nil {
			t.Fatalf("delta %d: %v", di, err)
		}
		if _, err := g.ApplyDelta(d); err != nil {
			t.Fatalf("reference delta %d: %v", di, err)
		}
	}
	rt.Probe(context.Background())
	if !allUp(rt.Describe()) {
		t.Fatalf("restarted worker did not rejoin: %+v", rt.Describe().Shards)
	}
	if ra := rt.Adjacency(); ra.Rows != g.Adj.Rows || !slices.Equal(ra.RowPtr, g.Adj.RowPtr) ||
		!slices.Equal(ra.Col, g.Adj.Col) || ra.Val != nil {
		t.Fatal("router: adjacency differs from the reference's")
	}

	fresh, err := core.NewDeployment(m, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	targets := append([]int(nil), ds.Split.Test...)
	for v := ds.Graph.N(); v < g.N(); v++ {
		targets = append(targets, v)
	}
	for i, w := range workers {
		wg := w.dep.Graph
		switch {
		case w.dep.Version() != rt.Version():
			t.Fatalf("worker %d at version %d, router at %d", i, w.dep.Version(), rt.Version())
		case !slices.Equal(wg.Adj.RowPtr, g.Adj.RowPtr) || !slices.Equal(wg.Adj.Col, g.Adj.Col) ||
			!slices.Equal(bits(wg.Adj.Val), bits(g.Adj.Val)):
			t.Fatalf("worker %d: adjacency differs from the reference's", i)
		case !slices.Equal(bits(wg.Features.Data), bits(g.Features.Data)) ||
			!slices.Equal(wg.Labels, g.Labels):
			t.Fatalf("worker %d: features or labels differ from the reference's", i)
		}
		for oi, opt := range inferOpts(m) {
			want, err := fresh.Infer(targets, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := w.dep.Infer(targets, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Pred, want.Pred) || !slices.Equal(got.Depths, want.Depths) ||
				!slices.Equal(got.NodesPerDepth, want.NodesPerDepth) || got.MACs != want.MACs {
				t.Fatalf("worker %d opt%d: answers differ from a fresh deployment's", i, oi)
			}
		}
	}
	requireSameAnswers(t, "after the delta sequence", rt, fresh, targets)
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
