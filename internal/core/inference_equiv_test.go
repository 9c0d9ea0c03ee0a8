package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// This file pins the serving engine to the algorithm it optimizes:
// seedInfer is a literal transcription of the pre-optimization engine
// (stationary state recomputed per batch, one from-scratch BFS per hop over
// full-graph n×f buffers, Â a stored matrix, map-based removal), at the
// deployment's precision tier, and the tests require the optimized engine to
// reproduce its Pred/Depths/NodesPerDepth, and Books its full MAC breakdown,
// bit-identically across modes, ablations and batch sizes — plus race tests
// for the concurrency contract (read-only deployment, pooled scratch). It
// shares no propagation code with the engine: no operator product, no X^(1)
// layer, no compaction.

// seedInfer mirrors Deployment.Infer before the zero-recompute engine, at d's
// tier. The per-depth propagation buffers are allocated once and reused across
// batches, exactly as the seed deployment's ensureBuffers did.
func seedInfer(d *Deployment, targets []int, opt InferenceOptions) *Result {
	if d.Precision() == kernel.PrecisionF64 {
		return seedInferAt[float64](d, targets, opt)
	}
	return seedInferAt[float32](d, targets, opt)
}

// seedOperands is what the seed deployment held at a tier: Â as a matrix,
// normalized from the graph alone, its values lowered once to the slab's
// element type, and X^(0) likewise — or at int8 quantized row by row, each row
// at its own symmetric scale, which hop 1 reads as float32(q) through a second
// lowering of Â, every value multiplied by its column's row scale before it is
// rounded.
type seedOperands[T float64 | float32] struct {
	adj   *sparse.CSR
	vals  []T   // Â's values at T
	vals1 []T   // hop 1's: vals, or at int8 the values with the scales folded in
	feats [][]T // feats[l] is X^(l), n×f; feats[0] is float32(q) at int8
}

func seedInferAt[T float64 | float32](d *Deployment, targets []int, opt InferenceOptions) *Result {
	agg := &Result{NodesPerDepth: make([]int, d.Model.K+1)}
	batchSize := opt.BatchSize
	if batchSize <= 0 {
		batchSize = len(targets)
	}
	if len(targets) == 0 {
		return agg
	}
	g := d.Graph
	so := &seedOperands[T]{
		adj:   sparse.NormalizedAdjacency(g.Adj, d.Model.Gamma),
		feats: make([][]T, opt.TMax+1),
	}
	so.vals, so.vals1, so.feats[0] = lowered[T](so.adj.Val, nil), lowered[T](so.adj.Val, nil), lowered[T](g.Features.Data, nil)
	if d.Precision() == kernel.PrecisionInt8 {
		scales := make([]float64, g.N())
		for i := range scales {
			q, scale := kernel.Quantize(g.Features.Row(i))
			scales[i] = scale
			for j, v := range q {
				so.feats[0][i*g.F()+j] = T(v)
			}
		}
		for p, c := range so.adj.Col {
			so.vals1[p] = T(so.adj.Val[p] * scales[c])
		}
	}
	for l := 1; l <= opt.TMax; l++ {
		so.feats[l] = make([]T, g.N()*g.F())
	}
	for _, batch := range graph.Batches(targets, batchSize) {
		res := seedInferBatch(d, so, batch, opt)
		agg.Merge(res)
	}
	return agg
}

// propagate is hop l of the seed engine over rows: X^(l)[rows] = (Â·X^(l−1))[rows]
// at the tier.
func (so *seedOperands[T]) propagate(l int, rows []int, f int) int {
	vals := so.vals
	if l == 1 {
		vals = so.vals1
	}
	return sparse.MulRowsInto(so.adj, rows, rows, vals, so.feats[l-1], f, 1, so.feats[l])
}

// rows gathers the given nodes' rows of X^(l) as float64, the type every
// decision and classifier runs at; depth 0 reads the feature matrix itself.
func (so *seedOperands[T]) rows(g *graph.Graph, l int, nodes []int) *mat.Matrix {
	if l == 0 {
		return g.Features.GatherRows(nodes)
	}
	f := g.F()
	out := mat.New(len(nodes), f)
	for k, v := range nodes {
		widen(out.Row(k), so.feats[l][v*f:][:f])
	}
	return out
}

// seedInferBatch is the seed engine's Algorithm 1 for one batch.
func seedInferBatch[T float64 | float32](d *Deployment, so *seedOperands[T], targets []int, opt InferenceOptions) *Result {
	m := d.Model
	g := d.Graph
	res := &Result{
		Pred:          make([]int, len(targets)),
		Depths:        make([]int, len(targets)),
		NodesPerDepth: make([]int, m.K+1),
		NumTargets:    len(targets),
	}

	// Seed line 2: stationary state recomputed for every batch.
	var xinf *mat.Matrix
	if opt.Mode != ModeFixed {
		st := ComputeStationary(g.Adj, g.Features, m.Gamma)
		xinf = st.Rows(targets)
		res.MACs.Stationary = st.SumMACs + len(targets)*st.RowMACs()
	}

	active := make([]int, len(targets))
	for i := range active {
		active[i] = i
	}

	for l := 1; l <= opt.TMax; l++ {
		// Seed lines 3/5: a from-scratch BFS ball per hop.
		rows := graph.Ball(g.Adj, gather(targets, active), opt.TMax-l)
		res.MACs.Propagation += so.propagate(l, rows, g.F())

		if l < opt.TMin {
			continue
		}
		if l < opt.TMax && opt.Mode != ModeFixed {
			exit := seedDecide(d, l, so.rows(g, l, gather(targets, active)), xinf, active, opt, &res.MACs)
			if len(exit) > 0 {
				seedClassify(d, so, l, targets, exit, res)
				active = seedRemoveIndices(active, exit)
				if len(active) == 0 {
					break
				}
			}
		} else if l == opt.TMax {
			seedClassify(d, so, l, targets, active, res)
			active = nil
		}
	}
	return res
}

// seedDecide returns the members of active that exit at depth l; xl holds
// their depth-l rows, in active's order.
func seedDecide(d *Deployment, l int, xl, xinf *mat.Matrix, active []int,
	opt InferenceOptions, macs *MACBreakdown) []int {

	f := xl.Cols
	var exit []int
	switch opt.Mode {
	case ModeDistance:
		for k, ti := range active {
			row := xl.Row(k)
			ref := xinf.Row(ti)
			var s float64
			for j, v := range row {
				diff := v - ref[j]
				s += diff * diff
			}
			if s < opt.Ts*opt.Ts {
				exit = append(exit, ti)
			}
		}
		macs.Decision += len(active) * f
	case ModeGate:
		gate := d.Model.Gates[l]
		xinfRows := mat.New(len(active), f)
		for k, ti := range active {
			copy(xinfRows.Row(k), xinf.Row(ti))
		}
		for k, ex := range gate.Decide(xl, xinfRows) {
			if ex {
				exit = append(exit, active[k])
			}
		}
		macs.Decision += len(active) * gate.MACsPerRow()
	}
	return exit
}

func seedClassify[T float64 | float32](d *Deployment, so *seedOperands[T], l int, targets []int, idx []int, res *Result) {
	if len(idx) == 0 {
		return
	}
	nodes := gather(targets, idx)
	stack := make([]*mat.Matrix, l+1)
	for j := 0; j <= l; j++ {
		stack[j] = so.rows(d.Graph, j, nodes)
	}
	input := d.Model.Combiner.Combine(stack, l)
	clf := d.Model.Classifiers[l]
	pred := clf.Predict(input)
	for k, ti := range idx {
		res.Pred[ti] = pred[k]
		res.Depths[ti] = l
	}
	res.NodesPerDepth[l] += len(idx)
	res.MACs.Combine += len(idx) * d.Model.Combiner.MACsPerRow(l, d.Graph.F())
	res.MACs.Classification += len(idx) * clf.MACsPerRow()
}

func seedRemoveIndices(active, remove []int) []int {
	rm := make(map[int]bool, len(remove))
	for _, v := range remove {
		rm[v] = true
	}
	out := active[:0]
	for _, v := range active {
		if !rm[v] {
			out = append(out, v)
		}
	}
	return out
}

// requireSameResult fails unless the algorithmic outputs match exactly.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.NumTargets != want.NumTargets {
		t.Fatalf("%s: NumTargets %d != %d", label, got.NumTargets, want.NumTargets)
	}
	for i := range want.Pred {
		if got.Pred[i] != want.Pred[i] {
			t.Fatalf("%s: Pred[%d] = %d, seed %d", label, i, got.Pred[i], want.Pred[i])
		}
		if got.Depths[i] != want.Depths[i] {
			t.Fatalf("%s: Depths[%d] = %d, seed %d", label, i, got.Depths[i], want.Depths[i])
		}
	}
	for l := range want.NodesPerDepth {
		if got.NodesPerDepth[l] != want.NodesPerDepth[l] {
			t.Fatalf("%s: NodesPerDepth[%d] = %d, seed %d",
				label, l, got.NodesPerDepth[l], want.NodesPerDepth[l])
		}
	}
	if got.MACs != want.MACs {
		t.Fatalf("%s: MACs %+v, seed %+v", label, got.MACs, want.MACs)
	}
}

// booked returns res, an InferContext or inferBatch answer, with its MACs set
// to Books of its depths, and requires the serving entry to have left them zero.
func booked(t *testing.T, dep *Deployment, targets []int, opt InferenceOptions, res *Result) *Result {
	t.Helper()
	if res.MACs != (MACBreakdown{}) {
		t.Fatalf("the serving entry kept books: %+v", res.MACs)
	}
	var err error
	if res.MACs, err = dep.Books(targets, opt, res.Depths); err != nil {
		t.Fatal(err)
	}
	return res
}

// equivCases spans the serving configurations whose outputs must be
// bit-identical to the seed engine.
func equivCases(k int) []InferenceOptions {
	var cases []InferenceOptions
	for _, batch := range []int{0, 7, 1} {
		cases = append(cases,
			InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: k, BatchSize: batch},
			InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 1, BatchSize: batch},
			InferenceOptions{Mode: ModeDistance, Ts: 0.3, TMin: 1, TMax: k, BatchSize: batch},
			InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: k, BatchSize: batch},
			InferenceOptions{Mode: ModeDistance, Ts: 2.5, TMin: 2, TMax: k, BatchSize: batch},
			InferenceOptions{Mode: ModeDistance, Ts: 1e9, TMin: 1, TMax: k, BatchSize: batch},
			InferenceOptions{Mode: ModeGate, TMin: 1, TMax: k, BatchSize: batch},
			// TMin == TMax: no decision hops; the compacted engine must
			// still propagate every depth and classify only at TMax.
			InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: k, TMax: k, BatchSize: batch},
			InferenceOptions{Mode: ModeGate, TMin: 2, TMax: 2, BatchSize: batch},
		)
	}
	return cases
}

// TestEngineMatchesSeedReference pins the engine to the seed transcription
// at every tier and every TMax: the equivalence cases up to TMax 3 on the
// K = 3 model, and up to TMax 4 and 5 on the K = 5 one.
func TestEngineMatchesSeedReference(t *testing.T) {
	ds := tinyData(t)
	deep := trainedDeepModel(t)
	for _, p := range tiers {
		for _, c := range []struct {
			m    *Model
			tmax int
		}{{trainedModel(t), trainedModel(t).K}, {deep, deep.K - 1}, {deep, deep.K}} {
			m := c.m
			dep := deployAt(t, m, ds.Graph, p)
			for _, opt := range equivCases(c.tmax) {
				label := fmt.Sprintf("%v/K=%d/%v/ts=%v/tmin=%d/tmax=%d/batch=%d",
					p, m.K, opt.Mode, opt.Ts, opt.TMin, opt.TMax, opt.BatchSize)
				want := seedInfer(dep, ds.Split.Test, opt)
				got, err := dep.Infer(ds.Split.Test, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameResult(t, label, got, want)
			}
		}
	}
}

func TestEngineMatchesSeedOnTargetSubsets(t *testing.T) {
	// Unsorted, overlapping-ball target subsets stress the incremental
	// shrink path (exit waves re-derive the nested sets mid-flight).
	ds := tinyData(t)
	m := trainedModel(t)
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	test := ds.Split.Test
	subsets := [][]int{
		{test[5]},
		{test[9], test[2], test[31]},
		append(append([]int(nil), test[10:20]...), test[0:5]...),
	}
	for si, targets := range subsets {
		for _, ts := range []float64{0.4, 0.9, 1.6} {
			opt := InferenceOptions{Mode: ModeDistance, Ts: ts, TMin: 1, TMax: m.K, BatchSize: 4}
			want := seedInfer(dep, targets, opt)
			got, err := dep.Infer(targets, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("subset=%d/ts=%v", si, ts), got, want)
		}
	}
}

func TestConcurrentInferCallers(t *testing.T) {
	// One shared Deployment, ≥4 concurrent callers with mixed modes: every
	// caller must observe exactly the serial result (run with -race).
	ds := tinyData(t)
	m := trainedModel(t)
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	opts := []InferenceOptions{
		{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K, BatchSize: 6},
		{Mode: ModeGate, TMin: 1, TMax: m.K, BatchSize: 10},
		{Mode: ModeFixed, TMin: 1, TMax: m.K},
		{Mode: ModeDistance, Ts: 2.0, TMin: 2, TMax: m.K, BatchSize: 4},
	}
	want := make([]*Result, len(opts))
	for i, opt := range opts {
		if want[i], err = dep.Infer(ds.Split.Test, opt); err != nil {
			t.Fatal(err)
		}
	}

	const callersPerOpt = 2 // 8 concurrent callers total
	errs := make(chan error, callersPerOpt*len(opts))
	var wg sync.WaitGroup
	for c := 0; c < callersPerOpt; c++ {
		for i, opt := range opts {
			wg.Add(1)
			go func(i int, opt InferenceOptions) {
				defer wg.Done()
				got, err := dep.Infer(ds.Split.Test, opt)
				if err != nil {
					errs <- err
					return
				}
				for k := range want[i].Pred {
					if got.Pred[k] != want[i].Pred[k] || got.Depths[k] != want[i].Depths[k] {
						errs <- fmt.Errorf("caller opt %d: diverged at target %d", i, k)
						return
					}
				}
				if got.MACs != want[i].MACs {
					errs <- fmt.Errorf("caller opt %d: MACs diverged", i)
				}
			}(i, opt)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRefreshTracksGraphMutation(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate features in place: the cached stationary state is stale until
	// Refresh, after which it must match a from-scratch deployment.
	old := ds.Graph.Features.At(0, 0)
	ds.Graph.Features.Set(0, 0, old+3)
	defer func() {
		ds.Graph.Features.Set(0, 0, old)
		dep.Refresh()
	}()
	fresh := ComputeStationary(ds.Graph.Adj, ds.Graph.Features, m.Gamma)
	if mat.Equal(dep.Stationary().Full(), fresh.Full()) {
		t.Fatal("stationary state unexpectedly tracked the mutation without Refresh")
	}
	dep.Refresh()
	if !mat.Equal(dep.Stationary().Full(), fresh.Full()) {
		t.Fatal("Refresh did not recompute the stationary state")
	}
}

// BenchmarkEngineVsSeedReference quantifies the zero-recompute engine
// against the seed transcription on multi-batch NAP_d workloads: bulk
// batches on a mid-size graph, and the paper's latency-sensitive scenario
// of many small batches against a large serving graph, where the seed's
// per-batch stationary recomputation dominates.
func BenchmarkEngineVsSeedReference(b *testing.B) {
	for _, w := range []struct {
		name      string
		cfg       synth.Config
		n         int
		batchSize int
		tmax      int
	}{
		// Bulk scoring: deep propagation, large batches.
		{"flickr-bulk", synth.FlickrLike(1), 2000, 20, 3},
		// Latency-sensitive serving: many small batches against a large
		// graph at shallow depth, where the seed's per-batch O(n·f)
		// stationary recomputation dominates.
		{"products-smallbatch", synth.ProductsLike(1), 10000, 5, 2},
	} {
		cfg := w.cfg
		cfg.N = w.n
		ds, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m, err := Train(ds.Graph, ds.Split, fastOptions("sgc"))
		if err != nil {
			b.Fatal(err)
		}
		dep, err := NewDeployment(m, ds.Graph)
		if err != nil {
			b.Fatal(err)
		}
		targets := ds.Split.Test[:200]
		opt := InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: w.tmax,
			BatchSize: w.batchSize}
		b.Run(w.name+"/seed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seedInfer(dep, targets, opt)
			}
		})
		b.Run(w.name+"/engine", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dep.Infer(targets, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gather returns the node ids of targets at the given indices.
func gather(targets []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = targets[v]
	}
	return out
}
