package shard

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/synth"
)

// The fixture trains one tiny model (with gates, so all three NAP modes can
// be exercised) and is shared across tests; every test clones the graph it
// serves, since deltas mutate graphs in place.
var (
	fixOnce  sync.Once
	fixDS    *synth.Dataset
	fixModel *core.Model
)

func fixture(t *testing.T) (*synth.Dataset, *core.Model) {
	t.Helper()
	fixOnce.Do(func() {
		ds, err := synth.Generate(synth.Tiny(23))
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		fixDS, fixModel = ds, trainFixture(t, ds, 3)
	})
	return fixDS, fixModel
}

var (
	deepOnce  sync.Once
	deepModel *core.Model
)

// deepFixture is the fixture's model at K = 5, whose operating points at TMax
// 4 and 5 read the engine's layers at depths 2 and 3.
func deepFixture(t *testing.T) *core.Model {
	t.Helper()
	ds, _ := fixture(t)
	deepOnce.Do(func() { deepModel = trainFixture(t, ds, 5) })
	return deepModel
}

func trainFixture(t *testing.T, ds *synth.Dataset, k int) *core.Model {
	opt := core.DefaultTrainOptions()
	opt.K = k
	opt.Hidden = []int{16}
	opt.Base = nn.TrainConfig{Epochs: 40, LR: 0.02, WeightDecay: 1e-4, Patience: 10, Seed: 1}
	opt.DistillEpochs = 25
	opt.GateEpochs = 15
	opt.EnsembleR = 2
	m, err := core.Train(ds.Graph, ds.Split, opt)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return m
}

// TestPartition checks the ownership invariants of both strategies: every
// node owned exactly once, shard sizes within one of each other, and the
// contiguous strategy producing id ranges.
func TestPartition(t *testing.T) {
	ds, _ := fixture(t)
	g := ds.Graph
	n := g.N()
	for _, strat := range []Strategy{StrategyBFS, StrategyContiguous} {
		for _, p := range []int{1, 2, 4, 7} {
			asg, err := Partition(g, p, strat)
			if err != nil {
				t.Fatalf("%v/%d: %v", strat, p, err)
			}
			total := 0
			minSize, maxSize := n, 0
			for s := 0; s < p; s++ {
				size := len(asg.Owned[s])
				total += size
				if size < minSize {
					minSize = size
				}
				if size > maxSize {
					maxSize = size
				}
				for _, v := range asg.Owned[s] {
					if int(asg.Owner[v]) != s {
						t.Fatalf("%v/%d: node %d owned list disagrees with owner map", strat, p, v)
					}
				}
			}
			if total != n {
				t.Fatalf("%v/%d: %d nodes assigned, want %d", strat, p, total, n)
			}
			if maxSize-minSize > 1 {
				t.Fatalf("%v/%d: shard sizes [%d,%d] differ by more than 1", strat, p, minSize, maxSize)
			}
		}
	}
	if _, err := Partition(g, 0, StrategyBFS); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := Partition(g, n+1, StrategyBFS); err == nil {
		t.Fatal("more shards than nodes accepted")
	}
}

// TestHaloMatchesBruteForce pins each shard's universe and distance labels
// against a brute-force BFS from the owned set on the global graph.
func TestHaloMatchesBruteForce(t *testing.T) {
	ds, m := fixture(t)
	rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: 3, Radius: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	for p, s := range rt.shards {
		var owned []int
		for v := range rt.owner {
			if int(rt.owner[v]) == p {
				owned = append(owned, v)
			}
		}
		dist := graph.BFSDistances(g.Adj, owned)
		inUniverse := make(map[int]int, len(s.universe))
		for lv, v := range s.universe {
			inUniverse[v] = lv
		}
		for v := 0; v < g.N(); v++ {
			lv, ok := inUniverse[v]
			if dist[v] >= 0 && dist[v] <= rt.radius {
				if !ok {
					t.Fatalf("shard %d: node %d at distance %d missing from universe", p, v, dist[v])
				}
				if s.dist[lv] != dist[v] {
					t.Fatalf("shard %d: node %d distance %d, want %d", p, v, s.dist[lv], dist[v])
				}
				if int(s.toLocal[v]) != lv {
					t.Fatalf("shard %d: toLocal[%d]=%d, want %d", p, v, s.toLocal[v], lv)
				}
			} else if ok {
				t.Fatalf("shard %d: node %d at distance %d wrongly in universe", p, v, dist[v])
			}
		}
		// Interior rows must be complete; all rows truncated to the universe.
		for lv, v := range s.universe {
			want := 0
			for _, u := range g.Adj.RowIndices(v) {
				if _, ok := inUniverse[u]; ok {
					want++
				}
			}
			got := rt.localWorker(p).dep.Graph.Adj.RowNNZ(lv)
			if got != want {
				t.Fatalf("shard %d: local row %d(global %d) has %d entries, want %d", p, lv, v, got, want)
			}
			if s.dist[lv] <= rt.radius-1 && want != g.Adj.RowNNZ(v) {
				t.Fatalf("shard %d: interior node %d row truncated (%d of %d neighbors)",
					p, v, want, g.Adj.RowNNZ(v))
			}
		}
	}
}

// TestShardDeploymentRefreshPanics: a per-shard deployment's caches carry
// global semantics; the footguns that would rebuild them locally must
// panic, not silently desynchronize the sharded answers.
func TestShardDeploymentRefreshPanics(t *testing.T) {
	ds, m := fixture(t)
	rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a shard deployment did not panic", name)
			}
		}()
		fn()
	}
	dep := rt.localWorker(0).dep
	mustPanic("Refresh", func() { dep.Refresh() })
	mustPanic("RefreshIncremental", func() { dep.RefreshIncremental(&graph.DeltaResult{Dirty: []int{0}}) })
	mustPanic("Stationary.Update", func() {
		dep.Stationary().Update(dep.Graph.Adj, dep.Graph.Features, []int{0})
	})
}

// TestRouterValidation covers the error paths: an operating point deeper
// than the halo radius, and out-of-range targets.
func TestRouterValidation(t *testing.T) {
	ds, m := fixture(t)
	rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: 2, Radius: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}
	if _, err := rt.Infer([]int{0}, opt); err == nil {
		t.Fatal("TMax beyond the halo radius accepted")
	}
	opt.TMax = 1
	if _, err := rt.Infer([]int{ds.Graph.N()}, opt); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if res, err := rt.Infer(nil, opt); err != nil || len(res.Pred) != 0 {
		t.Fatalf("empty target list: %v, %+v", err, res)
	}
}
