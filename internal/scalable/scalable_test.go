package scalable

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func testAdj(t *testing.T) *sparse.Normalized {
	t.Helper()
	// 0-1-2-3 path plus 0-3 to make a cycle
	adj := sparse.FromEdges(4, []int{0, 1, 2, 0}, []int{1, 2, 3, 3}, true)
	return sparse.NewNormalized(adj, sparse.GammaSymmetric, sparse.LoopedDegrees(adj))
}

func testFeats(rng *rand.Rand, n, f int) *mat.Matrix { return mat.Randn(n, f, 1, rng) }

func TestPropagate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj := testAdj(t)
	x := testFeats(rng, 4, 3)
	feats := Propagate(adj, x, 3)
	if len(feats) != 4 {
		t.Fatalf("len = %d", len(feats))
	}
	if feats[0] != x {
		t.Fatal("X^(0) should be the input")
	}
	dense := sparse.NormalizedAdjacency(adj.Adj, adj.Gamma).ToDense()
	want := mat.MatMul(dense, mat.MatMul(dense, x))
	if !mat.ApproxEqual(feats[2], want, 1e-12) {
		t.Fatal("X^(2) mismatch")
	}
}

func TestPropagateZeroDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	adj := testAdj(t)
	x := testFeats(rng, 4, 2)
	feats := Propagate(adj, x, 0)
	if len(feats) != 1 || feats[0] != x {
		t.Fatal("zero-depth propagation wrong")
	}
}

// TestPropagateMatchesMaterialized pins training's propagation to the stored
// Â it replaced, bit for bit: every hop equals MulRowsInto over
// NormalizedAdjacency applied to the previous hop, at each γ, on a graph with
// hub rows longer than a row driver's 96-entry frame buffer and enough work
// to fan each product out across workers.
func TestPropagateMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, f, k := 400, 9, 3
	var src, dst []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i < 3 || rng.Float64() < 0.02 {
				src, dst = append(src, i), append(dst, j)
			}
		}
	}
	g := sparse.FromEdges(n, src, dst, true)
	if g.RowNNZ(0) <= 96 {
		t.Fatalf("hub row has only %d entries", g.RowNNZ(0))
	}
	x := mat.Randn(n, f, 1, rng)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	for _, gamma := range []float64{sparse.GammaRowStochastic, sparse.GammaSymmetric, sparse.GammaColStochastic} {
		feats := Propagate(sparse.NewNormalized(g, gamma, sparse.LoopedDegrees(g)), x, k)
		stored := sparse.NormalizedAdjacency(g, gamma)
		want := x
		for l := 1; l <= k; l++ {
			next := mat.New(n, f)
			sparse.MulRowsInto(stored, rows, nil, stored.Val, want.Data, f, 1, next.Data)
			want = next
			for i, v := range want.Data {
				if math.Float64bits(feats[l].Data[i]) != math.Float64bits(v) {
					t.Fatalf("gamma %v hop %d element %d: %v, materialized %v", gamma, l, i, feats[l].Data[i], v)
				}
			}
		}
	}
}

func TestNewCombiner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"sgc", "sign", "s2gc", "gamlp"} {
		c, err := NewCombiner(name, 4, 3, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("Name = %q want %q", c.Name(), name)
		}
	}
	if _, err := NewCombiner("bogus", 4, 3, rng); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestSGCCombiner(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	feats := Propagate(testAdj(t), testFeats(rng, 4, 3), 2)
	c := SGCCombiner{}
	if got := c.Combine(feats, 2); got != feats[2] {
		t.Fatal("SGC must select X^(l)")
	}
	if c.InputDim(2, 3) != 3 || c.MACsPerRow(2, 3) != 0 || c.Params(2) != nil {
		t.Fatal("SGC metadata wrong")
	}
}

func TestS2GCCombinerAverages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	feats := Propagate(testAdj(t), testFeats(rng, 4, 3), 2)
	c := S2GCCombiner{}
	got := c.Combine(feats, 2)
	want := mat.Scale(1.0/3, mat.Add(mat.Add(feats[0], feats[1]), feats[2]))
	if !mat.ApproxEqual(got, want, 1e-12) {
		t.Fatal("S2GC average mismatch")
	}
	if c.InputDim(5, 3) != 3 {
		t.Fatal("S2GC input dim")
	}
}

func TestSIGNCombinerConcats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	feats := Propagate(testAdj(t), testFeats(rng, 4, 3), 2)
	c := SIGNCombiner{}
	got := c.Combine(feats, 2)
	if got.Cols != 9 {
		t.Fatalf("SIGN cols = %d want 9", got.Cols)
	}
	if c.InputDim(2, 3) != 9 {
		t.Fatal("SIGN input dim")
	}
	// column blocks must match the stack
	for j := 0; j <= 2; j++ {
		if !mat.ApproxEqual(got.SliceCols(j*3, (j+1)*3), feats[j], 1e-12) {
			t.Fatalf("SIGN block %d mismatch", j)
		}
	}
}

func TestGAMLPCombinerWeightsAreConvex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	feats := Propagate(testAdj(t), testFeats(rng, 4, 3), 2)
	c := NewGAMLPCombiner(3, 2, rng)
	got := c.Combine(feats, 2)
	if got.Rows != 4 || got.Cols != 3 {
		t.Fatalf("GAMLP shape %dx%d", got.Rows, got.Cols)
	}
	// Combined feature must lie inside the convex hull per coordinate:
	// min_j X^(j)_ic ≤ out_ic ≤ max_j X^(j)_ic.
	for i := 0; i < 4; i++ {
		for cIdx := 0; cIdx < 3; cIdx++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for j := 0; j <= 2; j++ {
				v := feats[j].At(i, cIdx)
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			v := got.At(i, cIdx)
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("combined value %v outside hull [%v,%v]", v, lo, hi)
			}
		}
	}
}

func TestGAMLPCombineNodeMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	feats := Propagate(testAdj(t), testFeats(rng, 4, 3), 2)
	c := NewGAMLPCombiner(3, 2, rng)
	want := c.Combine(feats, 2)
	b := nn.Bind()
	nodes := make([]*tensor.Node, 3)
	for j := range nodes {
		nodes[j] = b.Const(feats[j])
	}
	got := c.CombineNode(b, nodes, 2)
	if !mat.ApproxEqual(got.Value, want, 1e-10) {
		t.Fatal("CombineNode != Combine")
	}
}

func TestGAMLPParamsPerDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewGAMLPCombiner(4, 3, rng)
	if got := len(c.Params(1)); got != 2 {
		t.Fatalf("Params(1) = %d want 2", got)
	}
	if got := len(c.Params(3)); got != 4 {
		t.Fatalf("Params(3) = %d want 4", got)
	}
}

func TestGAMLPGradientsFlowToScores(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	feats := Propagate(testAdj(t), testFeats(rng, 4, 3), 2)
	c := NewGAMLPCombiner(3, 2, rng)
	b := nn.Bind()
	nodes := make([]*tensor.Node, 3)
	for j := range nodes {
		nodes[j] = b.Const(feats[j])
	}
	out := c.CombineNode(b, nodes, 2)
	b.Backward(tensor.SumSquares(out))
	for _, p := range c.Params(2) {
		if p.Grad == nil || p.Grad.FrobeniusNorm() == 0 {
			t.Fatalf("no gradient reached %s", p.Name)
		}
	}
}

func TestCombinersAgreeAtDepthZero(t *testing.T) {
	// at l=0, SGC, S2GC and GAMLP all reduce to X^(0) (GAMLP weight is 1)
	rng := rand.New(rand.NewSource(11))
	feats := Propagate(testAdj(t), testFeats(rng, 4, 3), 0)
	for _, c := range []Combiner{SGCCombiner{}, S2GCCombiner{}, NewGAMLPCombiner(3, 0, rng)} {
		got := c.Combine(feats, 0)
		if !mat.ApproxEqual(got, feats[0], 1e-12) {
			t.Fatalf("%s at depth 0 differs from X^(0)", c.Name())
		}
	}
}

// TestCombineReadsFromLowestDepth: for every combiner and depth, LowestDepth
// is in [0, l], and Combine over a stack whose entries below it are nil equals
// Combine over the full stack bit for bit (SGC reads X^(l) alone, the others
// every depth).
func TestCombineReadsFromLowestDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const k = 4
	feats := Propagate(testAdj(t), testFeats(rng, 4, 3), k)
	for _, name := range []string{"sgc", "sign", "s2gc", "gamlp"} {
		c, err := NewCombiner(name, 3, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l <= k; l++ {
			lo := c.LowestDepth(l)
			if lo < 0 || lo > l {
				t.Fatalf("%s: LowestDepth(%d) = %d", name, l, lo)
			}
			stack := make([]*mat.Matrix, l+1)
			copy(stack[lo:], feats[lo:l+1])
			if got, want := c.Combine(stack, l), c.Combine(feats, l); !mat.Equal(got, want) {
				t.Fatalf("%s at depth %d: Combine from depth %d differs from the full stack's", name, l, lo)
			}
		}
	}
}

func TestCombineNodeMatchesEvalAllModels(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	feats := Propagate(testAdj(t), testFeats(rng, 4, 3), 2)
	for _, name := range []string{"sgc", "sign", "s2gc"} {
		c, err := NewCombiner(name, 3, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		b := nn.Bind()
		nodes := make([]*tensor.Node, 3)
		for j := range nodes {
			nodes[j] = b.Const(feats[j])
		}
		got := c.CombineNode(b, nodes, 2)
		want := c.Combine(feats, 2)
		if !mat.ApproxEqual(got.Value, want, 1e-12) {
			t.Fatalf("%s: CombineNode != Combine", name)
		}
	}
}

func BenchmarkPropagateK4(b *testing.B) {
	cfg := synth.FlickrLike(1)
	cfg.N = 2000
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	adj := sparse.NewNormalized(ds.Graph.Adj, sparse.GammaSymmetric, sparse.LoopedDegrees(ds.Graph.Adj))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Propagate(adj, ds.Graph.Features, 4)
	}
}
