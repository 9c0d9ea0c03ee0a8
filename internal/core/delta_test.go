package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// carveDelta splits a generated graph into a base graph (the first n−k
// nodes with their induced edges) and the Delta that re-appends the rest,
// so applying the delta to the base must reproduce the full graph exactly.
func carveDelta(t *testing.T, ds *synth.Dataset, k int) (*graph.Graph, graph.Delta) {
	t.Helper()
	g := ds.Graph
	n := g.N()
	base := make([]int, n-k)
	for i := range base {
		base[i] = i
	}
	ind := g.Induce(base)
	var d graph.Delta
	d.Features = g.Features.GatherRows(rangeInts(n-k, n))
	d.Labels = append([]int(nil), g.Labels[n-k:]...)
	for u := n - k; u < n; u++ {
		for _, v := range g.Adj.RowIndices(u) {
			if int(v) < u { // each cross/new edge once
				d.Src = append(d.Src, u)
				d.Dst = append(d.Dst, int(v))
			}
		}
	}
	return ind.Graph, d
}

func rangeInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// sameNormalized reports whether two adjacency operators emit the same Â:
// the same pattern under bit-identical degree factors.
func sameNormalized(a, b *sparse.Normalized) bool {
	if a.Gamma != b.Gamma || a.N() != b.N() || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.Adj.RowPtr {
		if a.Adj.RowPtr[i] != b.Adj.RowPtr[i] {
			return false
		}
	}
	for k := range a.Adj.Col {
		if a.Adj.Col[k] != b.Adj.Col[k] {
			return false
		}
	}
	for i := range a.Left {
		if math.Float64bits(a.Left[i]) != math.Float64bits(b.Left[i]) ||
			math.Float64bits(a.Right[i]) != math.Float64bits(b.Right[i]) {
			return false
		}
	}
	return true
}

// requireSameState asserts two deployments carry bit-identical cached
// serving state (normalized adjacency + stationary decomposition).
func requireSameState(t *testing.T, want, got *Deployment) {
	t.Helper()
	if !sameNormalized(want.Adj, got.Adj) {
		t.Fatal("normalized adjacency differs from full Refresh")
	}
	sw, sg := want.Stationary(), got.Stationary()
	if sw.Scale != sg.Scale || sw.SumMACs != sg.SumMACs {
		t.Fatalf("stationary scalars differ: scale %v vs %v, MACs %d vs %d",
			sw.Scale, sg.Scale, sw.SumMACs, sg.SumMACs)
	}
	for c := range sw.WeightedSum {
		if sw.WeightedSum[c] != sg.WeightedSum[c] {
			t.Fatalf("weighted sum column %d differs: %v vs %v", c, sw.WeightedSum[c], sg.WeightedSum[c])
		}
	}
	if n := want.Graph.N(); got.Graph.N() != n {
		t.Fatalf("%d nodes, want %d", got.Graph.N(), n)
	}
	requireSameStationaryRows(t, "", sw, sg, want.Graph.N())
}

// TestDeltaEquivalence is the acceptance check of the incremental-refresh
// path: appending nodes/edges through ApplyDelta must leave the deployment
// bit-identical — cached state, predictions, depths and the full MAC
// breakdown — to a full Refresh on the merged graph, across NAP modes and
// multi-stage deltas.
func TestDeltaEquivalence(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	g := ds.Graph

	for _, stages := range []int{1, 3} {
		// Full-refresh reference on the merged graph.
		full, err := NewDeployment(m, g)
		if err != nil {
			t.Fatal(err)
		}

		base, delta := carveDelta(t, ds, 12)
		inc, err := NewDeployment(m, base)
		if err != nil {
			t.Fatal(err)
		}
		// Apply the carved delta in one or several stages: first the nodes
		// with their internal edges split across waves, exercising repeated
		// incremental refreshes on already-patched state.
		per := (len(delta.Src) + stages - 1) / stages
		for s := 0; s < stages; s++ {
			d := graph.Delta{}
			if s == 0 {
				d.Features, d.Labels = delta.Features, delta.Labels
			}
			lo, hi := s*per, (s+1)*per
			if hi > len(delta.Src) {
				hi = len(delta.Src)
			}
			if lo < hi {
				d.Src, d.Dst = delta.Src[lo:hi], delta.Dst[lo:hi]
			}
			if _, err := inc.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		}
		requireSameState(t, full, inc)

		targets := ds.Split.Test
		for _, opt := range []InferenceOptions{
			{Mode: ModeFixed, TMin: 1, TMax: m.K, BatchSize: 7},
			{Mode: ModeDistance, Ts: 0.35, TMin: 1, TMax: m.K, BatchSize: 9},
			{Mode: ModeGate, TMin: 1, TMax: m.K, BatchSize: 11},
		} {
			want, err := full.Infer(targets, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := inc.Infer(targets, opt)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.Pred {
				if want.Pred[k] != got.Pred[k] || want.Depths[k] != got.Depths[k] {
					t.Fatalf("stages=%d mode=%v: prediction diverged at target %d", stages, opt.Mode, k)
				}
			}
			if want.MACs != got.MACs {
				t.Fatalf("stages=%d mode=%v: MACs diverged: %+v vs %+v", stages, opt.Mode, want.MACs, got.MACs)
			}
		}
	}
}

// TestDeltaEdgeCases covers edge-only and node-only deltas, duplicate and
// already-present edges, self-loops (dropped), and isolated appended nodes.
func TestDeltaEdgeCases(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)

	t.Run("edge-only", func(t *testing.T) {
		base, delta := carveDelta(t, ds, 6)
		inc, _ := NewDeployment(m, base)
		if _, err := inc.ApplyDelta(graph.Delta{Features: delta.Features, Labels: delta.Labels}); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.ApplyDelta(graph.Delta{Src: delta.Src, Dst: delta.Dst}); err != nil {
			t.Fatal(err)
		}
		full, _ := NewDeployment(m, ds.Graph)
		requireSameState(t, full, inc)
	})

	t.Run("isolated-new-node", func(t *testing.T) {
		g := ds.Graph.Clone()
		dep, _ := NewDeployment(m, g)
		dr, err := dep.ApplyDelta(graph.Delta{
			Features: mat.Randn(1, g.F(), 1, rand.New(rand.NewSource(3))),
			Labels:   []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		if dr.FirstNew != ds.Graph.N() || dr.NumNew != 1 || len(dr.Dirty) != 1 {
			t.Fatalf("unexpected delta result %+v", dr)
		}
		fresh, _ := NewDeployment(m, g)
		requireSameState(t, fresh, dep)
		// The isolated node is classifiable (it only sees itself).
		res, err := dep.Infer([]int{dr.FirstNew}, InferenceOptions{Mode: ModeDistance, Ts: 0.1, TMin: 1, TMax: m.K})
		if err != nil || res.NumTargets != 1 {
			t.Fatalf("isolated-node inference failed: %v", err)
		}
	})

	t.Run("duplicate-and-existing-edges", func(t *testing.T) {
		g := ds.Graph.Clone()
		dep, _ := NewDeployment(m, g)
		u := 0
		for g.Adj.RowNNZ(u) == 0 {
			u++
		}
		v := int(g.Adj.RowIndices(u)[0]) // an existing edge
		dr, err := dep.ApplyDelta(graph.Delta{Src: []int{u, u, 5}, Dst: []int{v, v, 5}})
		if err != nil {
			t.Fatal(err)
		}
		if len(dr.Dirty) != 0 {
			t.Fatalf("existing/self edges marked rows dirty: %v", dr.Dirty)
		}
		fresh, _ := NewDeployment(m, g)
		requireSameState(t, fresh, dep)
	})

	t.Run("validation", func(t *testing.T) {
		g := ds.Graph.Clone()
		dep, _ := NewDeployment(m, g)
		cases := []graph.Delta{
			{Features: mat.New(1, g.F()+1), Labels: []int{0}},          // wrong feature dim
			{Features: mat.New(1, g.F()), Labels: []int{}},             // label count
			{Features: mat.New(1, g.F()), Labels: []int{g.NumClasses}}, // label range
			{Src: []int{0}, Dst: []int{g.N() + 5}},                     // endpoint range
			{Src: []int{0, 1}, Dst: []int{1}},                          // ragged edge lists
		}
		for i, d := range cases {
			if _, err := dep.ApplyDelta(d); err == nil {
				t.Fatalf("bad delta %d accepted", i)
			}
		}
	})
}

// TestDeltaGrowthHeadroom: every per-node array a delta extends grows by one
// rule (mat.Headroom). Over a stream of two-node deltas each of them — the
// features, the labels, the operator's degree factors, the looped degrees and
// the tier's lowered copy of the features — holds at most its length and
// 1/64 more, plus one delta's rows, at every tier; a delta that fits in the
// headroom moves no feature row; and the grown graph is the carved one.
func TestDeltaGrowthHeadroom(t *testing.T) {
	const k, perDelta = 64, 2
	ds := tinyData(t)
	m := trainedModel(t)
	for _, p := range tiers {
		base, delta := carveDelta(t, ds, k)
		dep := deployAt(t, m, base, p)
		n0, f := base.N(), base.F() // base is the serving graph: it grows
		within := func(label string, capacity, need, unit int) {
			t.Helper()
			if capacity > mat.Headroom(need)+perDelta*unit {
				t.Fatalf("%v: %s holds %d for %d elements, bound %d", p, label, capacity, need, mat.Headroom(need)+perDelta*unit)
			}
		}
		kept := 0 // deltas that fit in the features' headroom
		for u := n0; u < ds.Graph.N(); u += perDelta {
			d := graph.Delta{Features: delta.Features.GatherRows(rangeInts(u-n0, u-n0+perDelta)), Labels: delta.Labels[u-n0:][:perDelta]}
			for e := range delta.Src {
				if s := delta.Src[e]; s >= u && s < u+perDelta {
					d.Src, d.Dst = append(d.Src, s), append(d.Dst, delta.Dst[e])
				}
			}
			feat := dep.Graph.Features
			fits, first := cap(feat.Data)-len(feat.Data) >= perDelta*f, &feat.Data[0]
			if _, err := dep.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			if fits {
				kept++
				if &feat.Data[0] != first {
					t.Fatalf("%v: a delta within the headroom moved the features", p)
				}
			}

			n, g := dep.Graph.N(), dep.Graph
			within("Features.Data", cap(g.Features.Data), n*f, f)
			within("Labels", cap(g.Labels), n, 1)
			within("Adj.Left", cap(dep.Adj.Left), n, 1)
			if p == kernel.PrecisionF64 {
				if x := tierOf[float64](t, dep).base.x; &x[0] != &g.Features.Data[0] {
					t.Fatal("f64: the tier's operand is not the features")
				}
				continue
			}
			b := tierOf[float32](t, dep).base
			if p == kernel.PrecisionInt8 {
				within("int8 rows", cap(b.q), n*f, f)
				within("int8 scales", cap(b.scales), n, 1)
			} else {
				within("f32 rows", cap(b.x), n*f, f)
			}
		}
		if kept == 0 {
			t.Fatalf("%v: no delta of %d fit in the headroom", p, k/perDelta)
		}
		if !mat.Equal(dep.Graph.Features, ds.Graph.Features) || !slices.Equal(dep.Graph.Labels, ds.Graph.Labels) {
			t.Fatalf("%v: the grown graph's features or labels differ from the carved graph's", p)
		}
	}
}
