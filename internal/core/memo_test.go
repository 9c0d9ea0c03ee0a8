package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/synth"
)

// The layers' contract: reading hops 1..h out of a layer changes no output
// bit and no MAC count within a precision tier, under cold and warm layers,
// concurrent fills and deltas. The oracle is the seed transcription
// (seedInfer), which propagates every hop over its ball and holds no layer.

// tiers is the precision dimension of the layer and scratch suites.
var tiers = []kernel.Precision{kernel.PrecisionF64, kernel.PrecisionF32, kernel.PrecisionInt8}

// recold empties every row of d's layers, as a rebuilt engine starts.
func recold(d *Deployment) {
	switch e := d.eng.(type) {
	case *tier[float64]:
		recoldTier(e)
	case *tier[float32]:
		recoldTier(e)
	}
}

func recoldTier[T float64 | float32](e *tier[T]) {
	for i := range e.layers {
		for _, m := range []*hopLayer[T]{e.layers[i].Load(), e.hubs[i].Load()} {
			if m != nil {
				m.invalidateAll()
			}
		}
	}
}

// requireColdWarmSame runs opt on dep twice — whatever its layer holds, then
// warm from that run — and requires both to match the seed transcription on
// dep's graph bit for bit.
func requireColdWarmSame(t *testing.T, label string, dep *Deployment, targets []int, opt InferenceOptions) {
	t.Helper()
	want := seedInfer(dep, targets, opt)
	for _, pass := range []string{"cold", "warm"} {
		got, err := dep.Infer(targets, opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, pass, err)
		}
		requireSameResult(t, label+"/"+pass, got, want)
	}
}

func TestMemoEquivalence(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	cases := equivCases(m.K)
	for _, batch := range []int{0, 7, 1} {
		cases = append(cases,
			InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: 1, BatchSize: batch},
			InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: 2, BatchSize: batch},
			InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 2, BatchSize: batch},
			InferenceOptions{Mode: ModeGate, TMin: 1, TMax: 1, BatchSize: batch},
		)
	}
	for _, p := range tiers {
		dep := deployAt(t, m, ds.Graph, p)
		for _, opt := range cases {
			label := fmt.Sprintf("%v/%v/ts=%v/tmin=%d/tmax=%d/batch=%d",
				p, opt.Mode, opt.Ts, opt.TMin, opt.TMax, opt.BatchSize)
			recold(dep)
			before := dep.Hop1Stats()
			requireColdWarmSame(t, label, dep, ds.Split.Test, opt)
			after := dep.Hop1Stats()
			if after.FromMemo == before.FromMemo || after.Entries == 0 {
				t.Fatalf("%s: the layer served nothing (%+v → %+v)", label, before, after)
			}
		}
	}
}

// TestMemoDeltaEquivalence warms the layer on a base graph, then grows the
// graph in stages with inference between them, so every stage invalidates
// rows that were live: answers must keep matching the seed transcription on
// the graph as it stands, and at the end a deployment freshly built on the
// merged graph. At every tier — this is what checks the
// drop-exactly-the-recomputed-rows rule, which int8 shares with f32.
func TestMemoDeltaEquivalence(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	opts := []InferenceOptions{
		{Mode: ModeFixed, TMin: 1, TMax: m.K, BatchSize: 7},
		{Mode: ModeDistance, Ts: 0.35, TMin: 1, TMax: m.K, BatchSize: 9},
		{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: 2},
		{Mode: ModeFixed, TMin: 1, TMax: 1},
		{Mode: ModeGate, TMin: 1, TMax: m.K, BatchSize: 11},
	}
	for _, p := range tiers {
		for _, stages := range []int{1, 3} {
			base, delta := carveDelta(t, ds, 12)
			dep := deployAt(t, m, base, p)
			baseTargets := make([]int, 0, len(ds.Split.Test))
			for _, v := range ds.Split.Test {
				if v < base.N() {
					baseTargets = append(baseTargets, v)
				}
			}
			per := (len(delta.Src) + stages - 1) / stages
			for s := 0; s < stages; s++ {
				for oi, opt := range opts {
					requireColdWarmSame(t, fmt.Sprintf("%v stages=%d before %d opt%d", p, stages, s, oi),
						dep, baseTargets, opt)
				}
				d := graph.Delta{}
				if s == 0 {
					d.Features, d.Labels = delta.Features, delta.Labels
				}
				if lo, hi := s*per, min((s+1)*per, len(delta.Src)); lo < hi {
					d.Src, d.Dst = delta.Src[lo:hi], delta.Dst[lo:hi]
				}
				if _, err := dep.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
			}
			if dep.Hop1Stats().Invalidated == 0 {
				t.Fatalf("%v stages=%d: no live row of the layer was invalidated", p, stages)
			}
			fresh := deployAt(t, m, ds.Graph.Clone(), p)
			requireSameState(t, fresh, dep)
			for oi, opt := range opts {
				label := fmt.Sprintf("%v stages=%d merged opt%d", p, stages, oi)
				requireColdWarmSame(t, label, dep, ds.Split.Test, opt)
				want, err := fresh.Infer(ds.Split.Test, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := dep.Infer(ds.Split.Test, opt)
				requireSameResult(t, label+"/fresh deployment", got, want)
			}
		}
	}
}

// TestMemoConcurrentFill: eight callers race to fill the same empty rows (run
// under -race), at every tier; every one must see the seed's answer.
func TestMemoConcurrentFill(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	for _, p := range tiers {
		dep := deployAt(t, m, ds.Graph, p)
		opt := InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K, BatchSize: 16}
		want := seedInfer(dep, ds.Split.Test, opt)
		for round := 0; round < 5; round++ {
			recold(dep)
			results := make([]*Result, 8)
			var wg sync.WaitGroup
			for c := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := dep.Infer(ds.Split.Test, opt)
					if err != nil {
						t.Error(err)
					}
					results[c] = res
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for c, got := range results {
				requireSameResult(t, fmt.Sprintf("%v round %d caller %d", p, round, c), got, want)
			}
			if s := dep.Hop1Stats(); s.Entries == 0 || s.Entries > s.Capacity {
				t.Fatalf("%v round %d: %d entries for %d rows", p, round, s.Entries, s.Capacity)
			}
		}
	}
}

// TestMemoInvalidation poisons every row of the layer, attaches a new node to
// one hub and checks the delta emptied exactly the rows whose bits it could
// have changed — the rows Â recomputed, no more (the rest still hold the
// poison, and are read as they are) and no fewer (the refilled rows equal a
// fresh computation) — at every tier: the int8 tier quantizes the newcomer's
// features at a scale of their own and leaves every other row's as it was.
func TestMemoInvalidation(t *testing.T) {
	eachTier(t, testMemoInvalidation[float64], testMemoInvalidation[float32])
}

func testMemoInvalidation[T float64 | float32](t *testing.T, p kernel.Precision) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep := deployAt(t, m, ds.Graph.Clone(), p)
	g := dep.Graph
	eng := tierOf[T](t, dep)
	// TMax 1: hop 1 runs over the targets themselves, so this fills every row.
	fillAll := func() {
		if _, err := dep.Infer(rangeInts(0, g.N()), InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 1}); err != nil {
			t.Fatal(err)
		}
	}
	fillAll()
	mm := eng.layer(1)
	before := g.N()
	if s := dep.Hop1Stats(); s.Entries != before || s.Capacity != before {
		t.Fatalf("filled %d of %d rows (capacity %d)", s.Entries, before, s.Capacity)
	}
	const poison = -12345.0
	for i := range mm.block {
		mm.block[i] = poison
	}

	hub := 0
	for v := 0; v < g.N(); v++ {
		if g.Adj.RowNNZ(v) > g.Adj.RowNNZ(hub) {
			hub = v
		}
	}
	newNode := g.N()
	if _, err := dep.ApplyDelta(graph.Delta{
		Features: mat.New(1, g.F()), Labels: []int{0},
		Src: []int{newNode}, Dst: []int{hub},
	}); err != nil {
		t.Fatal(err)
	}
	// Rows of Â the delta recomputed: the two endpoints (their degrees
	// changed) and everything adjacent to them.
	valDirty := map[int]bool{hub: true, newNode: true}
	for _, u := range g.Adj.RowIndices(hub) {
		valDirty[int(u)] = true
	}
	stale := func(v int) bool { return valDirty[v] }
	cleared := 0
	for v := 0; v < before; v++ {
		empty := !mm.isReady(v)
		if empty != stale(v) {
			t.Fatalf("row of node %d: empty=%v, want %v", v, empty, stale(v))
		}
		if empty {
			cleared++
		} else if mm.block[v*g.F()] != poison {
			t.Fatalf("row of node %d was rewritten", v)
		}
	}
	if s := dep.Hop1Stats(); cleared == 0 || int(s.Invalidated) != cleared || s.Entries != before-cleared || s.Capacity != g.N() {
		t.Fatalf("cleared %d rows of %d, stats %+v", cleared, before, s)
	}

	fillAll()
	all := rangeInts(0, g.N())
	fresh := make([]T, g.N()*g.F())
	mulRows(dep.Adj, eng.base, all, all, nil, g.F(), fresh)
	for v := range all {
		if !mm.isReady(v) {
			t.Fatalf("row of node %d not refilled", v)
		}
		for j, x := range mm.block[v*g.F():][:g.F()] {
			want := fresh[v*g.F()+j]
			if !stale(v) {
				want = poison
			}
			if math.Float64bits(float64(x)) != math.Float64bits(float64(want)) {
				t.Fatalf("node %d col %d: the layer holds %v, want %v", v, j, x, want)
			}
		}
	}

	dep.Refresh()
	if s := dep.Hop1Stats(); s.Entries != 0 {
		t.Fatalf("Refresh kept %d rows", s.Entries)
	}
}

// TestMemoGrowsWithAppendedNodes: the nodes deltas append — the inductive
// newcomers, which every ball through them would otherwise recompute — get
// rows in the layer, one delta at a time past its headroom, and answers stay
// bit-equal to the seed transcription cold and warm.
func TestMemoGrowsWithAppendedNodes(t *testing.T) {
	m := trainedModel(t)
	opt := InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K, BatchSize: 16}
	for _, ds := range []*synth.Dataset{tinyData(t), denseData(t)} {
		for _, p := range tiers {
			base, delta := carveDelta(t, ds, 12)
			dep := deployAt(t, m, base, p)
			if s := dep.Hop1Stats(); s.Capacity != 0 {
				t.Fatalf("%v: %d rows before any read", p, s.Capacity)
			}
			for k := 0; k < 12; k++ { // one node per delta, with its edges to earlier nodes
				u := base.N()
				d := graph.Delta{Features: delta.Features.GatherRows([]int{k}), Labels: delta.Labels[k : k+1]}
				for e := range delta.Src {
					if delta.Src[e] == u {
						d.Src, d.Dst = append(d.Src, u), append(d.Dst, delta.Dst[e])
					}
				}
				if _, err := dep.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
				targets := append(rangeInts(u-3, u+1), ds.Split.Test[:8]...)
				requireColdWarmSame(t, fmt.Sprintf("%v after %d deltas", p, k+1), dep, targets, opt)
			}
			n := dep.Graph.N()
			if _, err := dep.Infer(rangeInts(0, n), InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 1}); err != nil {
				t.Fatal(err)
			}
			// The hub rows of X^(2), which TMax 3 reads, are none of X^(1)'s.
			hubs, resident := hubCounts(dep)
			if s := dep.Hop1Stats(); s.Capacity != n+hubs || s.Entries != n+resident {
				t.Fatalf("%v: stats %+v for %d nodes and %d hub rows, %d resident", p, s, n, hubs, resident)
			}
			requireColdWarmSame(t, fmt.Sprintf("%v full", p), dep, ds.Split.Test, opt)
		}
	}
}

// TestLayerBytes is the layers' memory contract. Whatever the graph's shape —
// sparse and narrow, dense, or f ≫ d̄, where the block outweighs the adjacency
// — a layer retains at most layerBytes(n + n/64, f, 2) bytes, a row, a ready
// bit and a closed bit per node plus the headroom, when first read and after
// growing past that headroom, and reports n rows' worth; a hub layer retains
// at most layerBytes(hubCount(n), f, 1) bytes, a row and a ready bit per hub,
// plus its slot index of 4 bytes a node, and reports its hubs' rows and that
// index. A deployment holds a block only for a depth it has been read at:
// read only at TMax 4 it holds X^(2) alone and has never allocated X^(1),
// beside the hub rows of X^(3); read at TMax 2 as well it holds two blocks
// and no more hub rows, and its counters sum them all.
func TestLayerBytes(t *testing.T) {
	eachTier(t, testLayerBytes[float64], testLayerBytes[float32])
}

func testLayerBytes[T float64 | float32](t *testing.T, p kernel.Precision) {
	elem := int(unsafe.Sizeof(*new(T)))
	// within fails unless every layer dep holds is within the bound and the
	// counters report exactly their n rows each.
	within := func(label string, dep *Deployment) {
		t.Helper()
		n, f := dep.Graph.N(), dep.Graph.F()
		bound := layerBytes[T](n+n/64, f, 2)
		held := func(mm *hopLayer[T]) int {
			return elem*cap(mm.block) + 8*cap(mm.ready) + 8*cap(mm.closed) + 4*cap(mm.slot)
		}
		layers := layersOf[T](t, dep)
		for h, mm := range layers {
			if got := held(mm); got > bound || mm.rows != n || len(mm.block) != n*f || len(mm.ready) != (n+63)/64 || len(mm.closed) != (n+63)/64 {
				t.Fatalf("%s: X^(%d) retains %d B for %d rows (of %d nodes), bound %d B", label, h, got, mm.rows, n, bound)
			}
		}
		hubs := hubCount(n)
		hubRows, _ := hubCounts(dep)
		slots := 0 // the bytes of the hub layers' slot indexes
		for l, mm := range hubLayersOf[T](t, dep) {
			k := len(hubsOf(mm))
			if hubBound := layerBytes[T](hubs, f, 1) + 4*n; k == 0 || held(mm) > hubBound || mm.rows != k || len(mm.block) != k*f || mm.closed != nil {
				t.Fatalf("%s: the hub layer of X^(%d) retains %d B for %d rows of %d members, bound %d B", label, l, held(mm), mm.rows, k, hubBound)
			}
			slots += 4 * len(mm.slot)
		}
		if s := dep.Hop1Stats(); s.Capacity != len(layers)*n+hubRows || s.Bytes != len(layers)*layerBytes[T](n, f, 2)+layerBytes[T](hubRows, f, 1)+slots {
			t.Fatalf("%s: counters report %d rows, %d B for %d blocks of %d nodes and %d hub rows", label, s.Capacity, s.Bytes, len(layers), n, hubRows)
		}
	}

	wide := synth.Tiny(5)
	wide.FeatureDim, wide.AvgDegree = 256, 4
	dense := synth.Tiny(5)
	dense.AvgDegree = 24
	for _, cfg := range []synth.Config{synth.Tiny(5), dense, wide} {
		ds, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base, delta := carveDelta(t, ds, 40) // more than the 1/64 of headroom
		dep := deployAt(t, &Model{K: 2, Gamma: 0.5, NumClasses: base.NumClasses, FeatureDim: base.F()}, base, p)
		label := fmt.Sprintf("f=%d d̄=%v", base.F(), cfg.AvgDegree)
		within(label+" as deployed", dep)
		tierOf[T](t, dep).layer(1) // a first read's allocation
		within(label+" first read", dep)
		if _, err := dep.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		within(label+" after 40 appended nodes", dep)
	}

	ds := tinyData(t)
	dep := deployAt(t, trainedDeepModel(t), ds.Graph, p)
	read := func(tmax int) {
		if _, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 2, TMax: tmax}); err != nil {
			t.Fatal(err)
		}
	}
	read(4)
	want, wantHubs := 2, []int{3}
	if layers := layersOf[T](t, dep); len(layers) != 1 || layers[want] == nil {
		t.Fatalf("read at TMax 4, the deployment holds layers %v, want X^(%d) alone", depths(layers), want)
	}
	if hubs := depths(hubLayersOf[T](t, dep)); !slices.Equal(hubs, wantHubs) {
		t.Fatalf("read at TMax 4, the deployment holds hub layers at depths %v, want %v", hubs, wantHubs)
	}
	within("read at TMax 4", dep)
	read(2)
	if layers := layersOf[T](t, dep); len(layers) != 2 { // X^(1) and X^(2)
		t.Fatalf("read at TMax 4 and 2, the deployment holds layers %v", depths(layers))
	}
	if hubs := depths(hubLayersOf[T](t, dep)); !slices.Equal(hubs, wantHubs) {
		t.Fatalf("read at TMax 4 and 2, the deployment holds hub layers at depths %v, want %v", hubs, wantHubs)
	}
	within("read at TMax 4 and 2", dep)
}

// depths lists the depths of a layer map, ascending.
func depths[T float64 | float32](layers map[int]*hopLayer[T]) []int {
	var out []int
	for h := range layers {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}
