package shard

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
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

// allUp reports whether every worker in a router's snapshot is up;
// Info.Healthy asks only for one.
func allUp(info core.Info) bool {
	for _, st := range info.Shards {
		if !st.Up {
			return false
		}
	}
	return len(info.Shards) > 0
}

// TestPartition checks the ownership invariants: every node owned exactly
// once and shard sizes within one of each other.
func TestPartition(t *testing.T) {
	ds, _ := fixture(t)
	g := ds.Graph
	n := g.N()
	for _, p := range []int{1, 2, 4, 7} {
		asg, err := Partition(g, p, StrategyBFS)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		total := 0
		minSize, maxSize := n, 0
		for s := 0; s < p; s++ {
			size := len(asg.Owned[s])
			total += size
			minSize, maxSize = min(minSize, size), max(maxSize, size)
			for _, v := range asg.Owned[s] {
				if int(asg.Owner[v]) != s {
					t.Fatalf("P=%d: node %d owned list disagrees with owner map", p, v)
				}
			}
		}
		if total != n {
			t.Fatalf("P=%d: %d nodes assigned, want %d", p, total, n)
		}
		if maxSize-minSize > 1 {
			t.Fatalf("P=%d: shard sizes [%d,%d] differ by more than 1", p, minSize, maxSize)
		}
	}
	if _, err := Partition(g, 0, StrategyBFS); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := Partition(g, n+1, StrategyBFS); err == nil {
		t.Fatal("more shards than nodes accepted")
	}
	if _, err := Partition(g, 2, Strategy(1)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestRouterValidation covers the error paths — out-of-range targets — and
// pins that the deprecated Config.Radius is not read: a router built with
// Radius 1 serves TMax = K, bit-identically to the unsharded deployment.
func TestRouterValidation(t *testing.T) {
	ds, m := fixture(t)
	rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: 2, Radius: 1})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}
	want, err := dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatalf("TMax = K on a Radius 1 router: %v", err)
	}
	if !slices.Equal(got.Pred, want.Pred) || !slices.Equal(got.Depths, want.Depths) {
		t.Fatal("TMax = K on a Radius 1 router: answers differ from the unsharded deployment")
	}
	if _, err := rt.Infer([]int{ds.Graph.N()}, opt); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if res, err := rt.Infer(nil, opt); err != nil || len(res.Pred) != 0 {
		t.Fatalf("empty target list: %v, %+v", err, res)
	}
}
