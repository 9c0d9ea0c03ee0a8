package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// These tests pin the compacted-coordinate scratch model: pooled scratches
// must serve batches of wildly different supporting-set sizes in any order
// with bit-identical results, edge cases (disconnected targets, TMin==TMax)
// must survive the remap, per-batch scratch memory must scale with |S|
// rather than the serving graph, and oversized pooled buffers must be
// dropped back to current need instead of pinned forever — at every
// precision tier, since each tier holds its buffers at its own element type.

// eachTier runs a test at the three precision tiers, each instantiated at its
// tier's slab element type.
func eachTier(t *testing.T, f64, f32 func(*testing.T, kernel.Precision)) {
	t.Run("f64", func(t *testing.T) { f64(t, kernel.PrecisionF64) })
	t.Run("f32", func(t *testing.T) { f32(t, kernel.PrecisionF32) })
	t.Run("int8", func(t *testing.T) { f32(t, kernel.PrecisionInt8) })
}

// deployAt deploys m on g at tier p.
func deployAt(t *testing.T, m *Model, g *graph.Graph, p kernel.Precision) *Deployment {
	t.Helper()
	dep, err := NewDeployment(m, g)
	if err != nil {
		t.Fatal(err)
	}
	dep.SetPrecision(p)
	return dep
}

// inferWith runs one unbatched inferBatch on a caller-held scratch, so
// tests can observe scratch growth deterministically (under -race the
// sync.Pool drops Puts at random, so pool inspection would be flaky).
func inferWith[T float64 | float32](t *testing.T, d *Deployment, sc *inferScratch[T], targets []int, opt InferenceOptions) {
	t.Helper()
	if err := opt.Validate(d.Model); err != nil {
		t.Fatal(err)
	}
	sc.prepare(d.Graph.N(), len(targets))
	d.eng.(*tier[T]).inferBatch(targets, opt, sc, nil)
}

func TestScratchReuseAcrossSupportSizes(t *testing.T) {
	// One deployment, sequential calls so the pool hands the same scratch
	// to every batch: a large-|S| batch (all test targets, deep TMax) must
	// be followed correctly by a tiny one (single target, TMax=1) and then
	// a large one again, in every mode.
	ds := tinyData(t)
	m := trainedModel(t)
	big := ds.Split.Test
	small := ds.Split.Test[:1]
	seq := []struct {
		name    string
		targets []int
		opt     InferenceOptions
	}{
		{"big-gate", big, InferenceOptions{Mode: ModeGate, TMin: 1, TMax: m.K, BatchSize: 9}},
		{"small-fixed-shallow", small, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 1}},
		{"big-distance", big, InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K}},
		{"small-distance", small, InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K}},
		{"big-fixed", big, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: m.K, BatchSize: 13}},
	}
	for _, p := range tiers {
		dep := deployAt(t, m, ds.Graph, p)
		for _, step := range seq {
			want := seedInfer(dep, step.targets, step.opt)
			got, err := dep.Infer(step.targets, step.opt)
			if err != nil {
				t.Fatalf("%v/%s: %v", p, step.name, err)
			}
			requireSameResult(t, p.String()+"/"+step.name, got, want)
		}
	}
}

// islandGraph returns a graph whose last node is fully disconnected, with
// dims matching the tiny trained model (f=16, 4 classes).
func islandGraph(t *testing.T) *graph.Graph {
	t.Helper()
	n := 12
	src := make([]int, 0, n-2)
	dst := make([]int, 0, n-2)
	for i := 0; i < n-2; i++ { // path over 0..n-2; node n-1 is an island
		src = append(src, i)
		dst = append(dst, i+1)
	}
	rng := rand.New(rand.NewSource(3))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 4
	}
	g, err := graph.New(sparse.FromEdges(n, src, dst, true), mat.Randn(n, 16, 1, rng), labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDisconnectedTargetCompact(t *testing.T) {
	// A disconnected target's supporting ball is just itself: the compact
	// universe has one row and the sub-CSR only the self-loop introduced by
	// normalization. Results must still match the seed engine exactly,
	// alone and mixed into a batch with connected targets.
	m := trainedModel(t)
	_ = tinyData(t)
	g := islandGraph(t)
	dep, err := NewDeployment(m, g)
	if err != nil {
		t.Fatal(err)
	}
	island := g.N() - 1
	for _, tc := range []struct {
		name    string
		targets []int
		opt     InferenceOptions
	}{
		{"island-alone-distance", []int{island}, InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K}},
		{"island-alone-gate", []int{island}, InferenceOptions{Mode: ModeGate, TMin: 1, TMax: m.K}},
		{"island-alone-fixed", []int{island}, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: m.K}},
		{"island-mixed", []int{3, island, 7}, InferenceOptions{Mode: ModeDistance, Ts: 0.5, TMin: 1, TMax: m.K}},
		{"island-mixed-batched", []int{island, 0, 5, 9}, InferenceOptions{Mode: ModeDistance, Ts: 1.2, TMin: 1, TMax: m.K, BatchSize: 2}},
	} {
		want := seedInfer(dep, tc.targets, tc.opt)
		got, err := dep.Infer(tc.targets, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireSameResult(t, tc.name, got, want)
	}
}

func TestTMinEqualsTMaxCompact(t *testing.T) {
	// TMin == TMax means no decision hops at all: every depth's propagation
	// still runs in compacted coordinates and classification happens only
	// at TMax. Covers depth 1 (no sub-CSR is even built) and depth K.
	ds := tinyData(t)
	m := trainedModel(t)
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 2, m.K} {
		for _, mode := range []Mode{ModeFixed, ModeDistance, ModeGate} {
			opt := InferenceOptions{Mode: mode, Ts: 0.8, TMin: depth, TMax: depth, BatchSize: 6}
			label := fmt.Sprintf("tmin=tmax=%d/%v", depth, mode)
			want := seedInfer(dep, ds.Split.Test, opt)
			got, err := dep.Infer(ds.Split.Test, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameResult(t, label, got, want)
		}
	}
}

func TestScratchScalesWithSupportNotGraph(t *testing.T) {
	// The same single-target workload on a 4× larger graph must not grow
	// the propagation slab with the graph: only the O(n) bitmap/remap
	// buffers may scale with n.
	m := trainedModel(t)
	_ = tinyData(t)
	slabFor := func(cfg synth.Config) (slabCap int, n int) {
		ds, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := NewDeployment(m, ds.Graph)
		if err != nil {
			t.Fatal(err)
		}
		opt := InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: 2}
		sc := &inferScratch[float64]{}
		inferWith(t, dep, sc, ds.Split.Test[:1], opt)
		return cap(sc.slab), ds.Graph.N()
	}
	smallCfg := synth.Tiny(11)
	bigCfg := synth.Tiny(11)
	bigCfg.N = 4 * smallCfg.N
	smallSlab, smallN := slabFor(smallCfg)
	bigSlab, bigN := slabFor(bigCfg)
	if bigN != 4*smallN {
		t.Fatalf("setup: n %d vs %d", bigN, smallN)
	}
	// The dense model would pin TMax·n·f floats: a 4× graph → 4× slab.
	// Compacted, the slab tracks the (workload-dependent) ball size, which
	// must stay far below proportional growth.
	if bigSlab >= 2*smallSlab+1024 {
		t.Fatalf("slab grew with the graph: %d (n=%d) vs %d (n=%d)",
			bigSlab, bigN, smallSlab, smallN)
	}
	denseEquiv := 2 * smallN * 16 // floats the n×f model would hold at TMax=2
	if smallSlab*5 > denseEquiv*8 {
		t.Fatalf("slab %dB not ≥5× under dense-equivalent %dB", smallSlab*8, denseEquiv*8)
	}
}

func TestOversizedScratchDropped(t *testing.T) {
	eachTier(t, testOversizedScratchDropped[float64], testOversizedScratchDropped[float32])
}

// denseData is tinyData's graph at four times its density: its adjacency
// outweighs its X^(1) block, where tinyData's is the lighter of the two.
func denseData(t *testing.T) *synth.Dataset {
	t.Helper()
	cfg := synth.Tiny(11)
	cfg.AvgDegree = 24
	ds, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testOversizedScratchDropped[T float64 | float32](t *testing.T, p kernel.Precision) {
	// A huge batch must not pin its buffers in the pool forever: once smaller
	// batches reuse the scratch, retained capacity has to fall back to at
	// most 4× current need (plus the fixed O(n) maps). A TMax = 2 batch shapes
	// its row list with no sub-CSR extraction to do it on the way.
	m := trainedModel(t)
	for _, ds := range []*synth.Dataset{tinyData(t), denseData(t)} {
		dep := deployAt(t, m, ds.Graph, p)
		sc := &inferScratch[T]{}
		// Every |S|-sized buffer: the slab, the row, ring and hop-1 lists, the
		// arena.
		sized := func() map[string]int {
			return map[string]int{
				"slab": cap(sc.slab), "hop rows": cap(sc.localRows),
				"BFS rings": cap(sc.bfs.ball), "BFS balls": cap(sc.bfs.sorted),
				"hop-1 claimed": cap(sc.claimed), "hop-1 awaited": cap(sc.awaited),
				"arena": len(sc.arena.buf),
			}
		}
		bigOpt := InferenceOptions{Mode: ModeGate, TMin: 1, TMax: m.K}
		inferWith(t, dep, sc, rangeInts(0, ds.Graph.N()), bigOpt)
		big := sized()
		if big["slab"] == 0 || big["hop rows"] == 0 || big["hop-1 claimed"] == 0 {
			t.Fatalf("%v: the big batch left buffers unused: %v", p, big)
		}

		// A small batch at TMax=2 exercises all of them: each one the policy
		// covers (growScratch leaves ≤ 1024 elements alone) must fall back
		// toward current need.
		smallOpt := InferenceOptions{Mode: ModeGate, TMin: 1, TMax: 2}
		inferWith(t, dep, sc, ds.Split.Test[:1], smallOpt)
		inferWith(t, dep, sc, ds.Split.Test[:1], smallOpt) // arena shrinks on the next hit
		for name, now := range sized() {
			if big[name] > 1024 && now >= big[name] {
				t.Fatalf("%v: oversized %s retained: %d after small batch, %d after big", p, name, now, big[name])
			}
		}

		// And at TMax=1 (no hop of the batch's own) the slab obeys the 4× cap
		// outright.
		tinyOpt := InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 1}
		inferWith(t, dep, sc, ds.Split.Test[:1], tinyOpt)
		need := 1 * 16 // TMax·|S|·f elements for a single-node ball at TMax=1
		if cap(sc.slab) > 4*need && cap(sc.slab) > 1024 {
			t.Fatalf("slab %d exceeds 4× need %d after tiny batch", cap(sc.slab), need)
		}

		// And the big workload still works (and re-grows) afterwards.
		want := seedInfer(dep, ds.Split.Test, bigOpt)
		got, err := dep.Infer(ds.Split.Test, bigOpt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "regrow", got, want)
	}
}

func TestScratchBytesReporting(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	for _, p := range tiers {
		dep := deployAt(t, m, ds.Graph, p)
		if dep.ScratchBytes() != 0 {
			t.Fatalf("%v: ScratchBytes nonzero before any Infer", p)
		}
		// Under -race, sync.Pool drops Puts at random, so the pooled scratch
		// may legitimately be missing after one call; retry until observed.
		opt := InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K}
		var b int
		for i := 0; i < 100 && b == 0; i++ {
			if _, err := dep.Infer(ds.Split.Test[:4], opt); err != nil {
				t.Fatal(err)
			}
			b = dep.ScratchBytes()
		}
		if b <= 0 {
			t.Fatalf("%v: ScratchBytes = %d after repeated Infer", p, b)
		}
	}
	// Buffers count at their element size, whatever the tier.
	sc64 := &inferScratch[float64]{slab: make([]float64, 10), rm: make([]bool, 3), toLocal: make([]int32, 5)}
	sc32 := &inferScratch[float32]{slab: make([]float32, 10), bfs: rings{ball: make([]int, 2)}, localRows: make([]int, 1)}
	if got, want := sc64.bytes(), 10*8+3+5*4; got != want {
		t.Fatalf("f64 scratch reports %d B, holds %d", got, want)
	}
	if got, want := sc32.bytes(), 10*4+2*8+8; got != want {
		t.Fatalf("f32 scratch reports %d B, holds %d", got, want)
	}
}
