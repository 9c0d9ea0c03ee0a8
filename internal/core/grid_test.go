package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/synth"
)

var (
	signOnce  sync.Once
	deepSign  *Model
	gridOnce  sync.Once
	gridGraph *synth.Dataset
)

// trainedDeepSign is trainedDeepModel's SIGN twin: its classifiers read every
// depth up to their own, so a batch computes its targets' rows below h too.
func trainedDeepSign(t *testing.T) *Model {
	t.Helper()
	ds := tinyData(t)
	signOnce.Do(func() {
		opt := fastOptions("sign")
		opt.K = 5
		m, err := Train(ds.Graph, ds.Split, opt)
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		deepSign = m
	})
	return deepSign
}

// productsGrid is a products-like graph of 3 000 nodes — power-law degrees
// averaging 25, so hubs and hub rows matter — at the tiny graph's feature
// width and classes, so the tiny graph's models serve it.
func productsGrid(t *testing.T) *synth.Dataset {
	t.Helper()
	gridOnce.Do(func() {
		cfg := synth.ProductsLike(11)
		cfg.N, cfg.FeatureDim, cfg.NumClasses = 3000, 16, 4
		ds, err := synth.Generate(cfg)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		gridGraph = ds
	})
	return gridGraph
}

// TestEngineGrid is the bit-identity grid. On the tiny graph and a
// products-like one of 3 000 nodes, for a K = 5 SGC and a K = 5 SIGN model, at
// every tier, in every mode, at TMax 1–5 and TMin 1 and 2 and at batch sizes
// 1, 7 and one batch (bookedOpts), each answer is the seed transcription's on
// the graph as it stands — predictions, depths, exits per depth and Books
// against the seed ledger — cold, warm, right after a delta and warm after
// it. Every operating point gets a delta of its own: a node appended, joined
// to a target and to the highest-degree node and read as a target after, and
// an edge between two old nodes, so the layers it reads after are warm and
// partly emptied, every hub row and closed bit gone. With -short only the
// tiny graph's SGC model and the products-like graph's SIGN model run, at f64
// and int8 on the tiny graph and at f32 on the other.
func TestEngineGrid(t *testing.T) {
	tiny, products := tinyData(t), productsGrid(t)
	type cell struct {
		name    string
		ds      *synth.Dataset
		targets []int
		m       *Model
		tiers   []kernel.Precision
	}
	hubTargets := append(slices.Clone(products.Split.Test[:10]), topDegree(products.Graph.Adj, 2)...)
	sgc, sign := trainedDeepModel(t), trainedDeepSign(t)
	cells := []cell{
		{"tiny/sgc", tiny, tiny.Split.Test[:40], sgc, tiers},
		{"tiny/sign", tiny, tiny.Split.Test[:40], sign, tiers},
		{"products/sgc", products, hubTargets, sgc, tiers},
		{"products/sign", products, hubTargets, sign, tiers},
	}
	if testing.Short() {
		cells = []cell{
			{"tiny/sgc", tiny, tiny.Split.Test[:40], sgc, []kernel.Precision{kernel.PrecisionF64, kernel.PrecisionInt8}},
			{"products/sign", products, hubTargets, sign, []kernel.Precision{kernel.PrecisionF32}},
		}
	}
	for _, c := range cells {
		for _, p := range c.tiers {
			t.Run(fmt.Sprintf("%s/%v", c.name, p), func(t *testing.T) {
				testEngineGrid(t, c.ds, c.targets, c.m, p)
			})
		}
	}
}

func testEngineGrid(t *testing.T, ds *synth.Dataset, targets []int, m *Model, p kernel.Precision) {
	dep := deployAt(t, m, ds.Graph.Clone(), p)
	g := dep.Graph
	rng := rand.New(rand.NewSource(int64(g.N())))
	hub := topDegree(g.Adj, 1)[0]
	early := 0 // answers with a target exiting before TMax
	check := func(label string, targets []int, opt InferenceOptions, want *Result) {
		t.Helper()
		got, err := dep.InferContext(context.Background(), targets, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, label, booked(t, dep, targets, opt, got), want)
		if got.NodesPerDepth[opt.TMax] < len(targets) {
			early++
		}
	}
	for _, opt := range bookedOpts(tsQuantile(t, dep, targets, 1, 0.5)) {
		label := fmt.Sprintf("%v/%v/tmin=%d/tmax=%d/batch=%d", p, opt.Mode, opt.TMin, opt.TMax, opt.BatchSize)
		recold(dep)
		want := seedInfer(dep, targets, opt)
		check(label+"/cold", targets, opt, want)
		check(label+"/warm", targets, opt, want)

		n := g.N()
		u, v := rng.Intn(n), rng.Intn(n)
		delta := graph.Delta{
			Features: mat.FromData(1, g.F(), slices.Clone(g.Features.Row(rng.Intn(n)))),
			Labels:   []int{0},
			Src:      []int{n, n, u},
			Dst:      []int{targets[rng.Intn(len(targets))], hub, v},
		}
		if _, err := dep.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		after := append(slices.Clone(targets), n)
		want = seedInfer(dep, after, opt)
		check(label+"/after a delta", after, opt, want)
		check(label+"/warm after the delta", after, opt, want)
	}
	if early == 0 {
		t.Fatal("no target exited before TMax")
	}
}
