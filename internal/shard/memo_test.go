package shard

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/synth"
)

// TestShardedMemoEquivalence is the engine layers' bit-identity gate on shard
// workers: for P ∈ {1,2} over both transports, before and after every delta
// stage, a router's cold and then warm answers, and Books of their depths,
// must equal a cold unsharded reference's answers and MACs — for the K = 3 model,
// whose operating points read X^(1), and the K = 5 model at TMax 4 and 5,
// which read X^(2) and X^(3). The graph is the test fixture's generator at
// 6000 nodes. The reference is a deployment built for that one call: with a
// single batch nothing can be read from a layer that was empty when the batch
// began.
func TestShardedMemoEquivalence(t *testing.T) {
	_, m := fixture(t)
	deep := deepFixture(t)
	for _, c := range []struct {
		m    *core.Model
		opts []core.InferenceOptions
	}{
		{m, inferOpts(m)},
		{deep, []core.InferenceOptions{
			{Mode: core.ModeFixed, TMin: 1, TMax: 4},
			{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: 5},
			{Mode: core.ModeDistance, Ts: 0.5, TMin: 2, TMax: 4},
			{Mode: core.ModeGate, TMin: 1, TMax: 5},
		}},
	} {
		testShardedMemoEquivalence(t, c.m, c.opts)
	}
}

func testShardedMemoEquivalence(t *testing.T, m *core.Model, opts []core.InferenceOptions) {
	cfg := synth.Tiny(23)
	cfg.N = 6000
	ds, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hub := 0
	for v := 0; v < ds.Graph.N(); v++ {
		if ds.Graph.Adj.RowNNZ(v) > ds.Graph.Adj.RowNNZ(hub) {
			hub = v
		}
	}
	deltas := testDeltas(ds.Graph, rand.New(rand.NewSource(99)))
	// testDeltas appends four nodes; a fifth lands next to the top hub, so a
	// memoized row must go.
	last := ds.Graph.N() + 4
	deltas = append(deltas, graph.Delta{
		Features: mat.Randn(1, ds.Graph.F(), 1, rand.New(rand.NewSource(5))), Labels: []int{0},
		Src: []int{last}, Dst: []int{hub},
	})
	targets := ds.Split.Test[:150]

	for _, transport := range []string{"local", "http"} {
		for _, p := range []int{1, 2} {
			tag := fmt.Sprintf("K=%d/%s/P=%d", m.K, transport, p)
			var rt *Router
			workers := make([]*Worker, p)
			if transport == "local" {
				if rt, err = NewRouter(m, ds.Graph.Clone(), Config{Shards: p}); err != nil {
					t.Fatal(err)
				}
				for i := range workers {
					workers[i] = rt.localWorker(i)
				}
			} else {
				addrs := make([]string, p)
				for i := range workers {
					if workers[i], err = NewWorker(m, ds.Graph.Clone(), Config{Shards: p}, i); err != nil {
						t.Fatal(err)
					}
					srv := httptest.NewServer(WorkerHandler(workers[i]))
					t.Cleanup(srv.Close)
					addrs[i] = srv.URL
				}
				tr := NewHTTPTransport(addrs, HTTPTransportConfig{CallTimeout: 5 * time.Second})
				if rt, err = NewRouterTransport(m, ds.Graph.Clone(), fastRetry(p), tr); err != nil {
					t.Fatal(err)
				}
			}

			merged := ds.Graph.Clone()
			check := func(stage string) {
				t.Helper()
				for oi, opt := range opts {
					ref, err := core.NewDeployment(m, merged.Clone())
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Infer(targets, opt)
					if err != nil {
						t.Fatal(err)
					}
					if s := ref.Hop1Stats(); s.FromMemo != 0 {
						t.Fatalf("%s %s opt%d: reference found %d rows resident", tag, stage, oi, s.FromMemo)
					}
					for _, pass := range []string{"cold", "warm"} {
						got, err := rt.Infer(targets, opt)
						if err != nil {
							t.Fatalf("%s %s opt%d %s: %v", tag, stage, oi, pass, err)
						}
						for i := range targets {
							if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
								t.Fatalf("%s %s opt%d %s target %d: (%d,%d) != cold reference (%d,%d)", tag, stage, oi, pass,
									targets[i], got.Pred[i], got.Depths[i], want.Pred[i], want.Depths[i])
							}
						}
						books, err := ref.Books(targets, opt, got.Depths)
						if err != nil {
							t.Fatal(err)
						}
						if books != want.MACs {
							t.Fatalf("%s %s opt%d %s: books %+v != cold reference %+v", tag, stage, oi, pass, books, want.MACs)
						}
					}
				}
			}
			check("bootstrapped")
			for di, d := range deltas {
				if _, err := merged.ApplyDelta(d.Clone()); err != nil {
					t.Fatal(err)
				}
				if _, err := rt.ApplyDelta(d.Clone()); err != nil {
					t.Fatalf("%s delta %d: %v", tag, di, err)
				}
				check(fmt.Sprintf("after delta %d", di))
			}
			var sum core.Hop1Stats
			for _, w := range workers {
				sum.Add(w.dep.Hop1Stats())
			}
			if sum.FromMemo == 0 || sum.Invalidated == 0 || sum.Entries == 0 {
				t.Fatalf("%s: the workers' memos were not exercised: %+v", tag, sum)
			}
			// The router reports its workers' last health reports, whichever
			// process they run in.
			rt.Probe(context.Background())
			if got := rt.Describe().Hop1; got != sum {
				t.Fatalf("%s: router reports %+v, workers sum to %+v", tag, got, sum)
			}
			rt.Close()
		}
	}
}
