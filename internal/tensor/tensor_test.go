package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// numericGrad estimates d f / d x by central differences, where f rebuilds
// the computation from scratch (so stochastic ops must be seeded inside f).
func numericGrad(f func(x *mat.Matrix) float64, x *mat.Matrix) *mat.Matrix {
	const eps = 1e-6
	g := mat.New(x.Rows, x.Cols)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		fp := f(x)
		x.Data[i] = orig - eps
		fm := f(x)
		x.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * eps)
	}
	return g
}

// checkGrad verifies the autodiff gradient of build against finite
// differences. build must construct the full graph from the leaf value and
// return the scalar loss node plus the leaf node it differentiates.
func checkGrad(t *testing.T, name string, x *mat.Matrix, build func(tp *Tape, x *Node) *Node) {
	t.Helper()
	tp := NewTape()
	leaf := tp.Var(x)
	loss := build(tp, leaf)
	tp.Backward(loss)
	got := leaf.Grad()
	if got == nil {
		t.Fatalf("%s: no gradient reached leaf", name)
	}
	want := numericGrad(func(xm *mat.Matrix) float64 {
		tp2 := NewTape()
		l2 := build(tp2, tp2.Var(xm))
		return l2.Scalar()
	}, x)
	if !mat.ApproxEqual(got, want, 1e-4) {
		t.Fatalf("%s gradient mismatch:\n got %v\nwant %v", name, got, want)
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	tp := NewTape()
	n := tp.Var(mat.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	tp.Backward(n)
}

func TestAddGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(3, 4, 1, rng)
	c := mat.Randn(3, 4, 1, rng)
	checkGrad(t, "Add", x, func(tp *Tape, leaf *Node) *Node {
		return SumAll(Add(leaf, tp.Const(c)))
	})
}

func TestSubGradBothSides(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := mat.Randn(2, 3, 1, rng)
	c := mat.Randn(2, 3, 1, rng)
	checkGrad(t, "Sub-left", x, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(Sub(leaf, tp.Const(c)))
	})
	checkGrad(t, "Sub-right", x, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(Sub(tp.Const(c), leaf))
	})
}

func TestMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := mat.Randn(3, 3, 1, rng)
	c := mat.Randn(3, 3, 1, rng)
	checkGrad(t, "Mul", x, func(tp *Tape, leaf *Node) *Node {
		return SumAll(Mul(leaf, tp.Const(c)))
	})
	checkGrad(t, "Mul-self", x, func(tp *Tape, leaf *Node) *Node {
		return SumAll(Mul(leaf, leaf))
	})
}

func TestScaleAddConstGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := mat.Randn(2, 2, 1, rng)
	checkGrad(t, "Scale", x, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(Scale(-2.5, AddConst(leaf, 3)))
	})
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := mat.Randn(4, 3, 1, rng)
	b := mat.Randn(3, 5, 1, rng)
	checkGrad(t, "MatMul-A", a, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(MatMul(leaf, tp.Const(b)))
	})
	checkGrad(t, "MatMul-B", b, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(MatMul(tp.Const(a), leaf))
	})
}

func TestAddBiasGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := mat.Randn(4, 3, 1, rng)
	b := mat.Randn(1, 3, 1, rng)
	checkGrad(t, "AddBias-input", a, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(AddBias(leaf, tp.Const(b)))
	})
	checkGrad(t, "AddBias-bias", b, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(AddBias(tp.Const(a), leaf))
	})
}

func TestMulColBroadcastGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := mat.Randn(4, 3, 1, rng)
	s := mat.Randn(4, 1, 1, rng)
	checkGrad(t, "MulColBroadcast-input", a, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(MulColBroadcast(leaf, tp.Const(s)))
	})
	checkGrad(t, "MulColBroadcast-scale", s, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(MulColBroadcast(tp.Const(a), leaf))
	})
}

func TestConcatSliceGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := mat.Randn(3, 2, 1, rng)
	b := mat.Randn(3, 4, 1, rng)
	checkGrad(t, "ConcatCols-left", a, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(ConcatCols(leaf, tp.Const(b)))
	})
	checkGrad(t, "ConcatCols-right", b, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(ConcatCols(tp.Const(a), leaf))
	})
	checkGrad(t, "SliceCols", b, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(SliceCols(leaf, 1, 3))
	})
}

func TestConcatColsN(t *testing.T) {
	tp := NewTape()
	a := tp.Const(mat.FromRows([][]float64{{1}}))
	b := tp.Const(mat.FromRows([][]float64{{2}}))
	c := tp.Const(mat.FromRows([][]float64{{3}}))
	out := ConcatColsN(a, b, c)
	if out.Cols() != 3 || out.Value.At(0, 2) != 3 {
		t.Fatalf("ConcatColsN = %v", out.Value)
	}
}

func TestGatherRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := mat.Randn(5, 3, 1, rng)
	idx := []int{4, 0, 0, 2} // duplicate to exercise scatter-add
	checkGrad(t, "GatherRows", a, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(GatherRows(leaf, idx))
	})
}

func TestReLUGrad(t *testing.T) {
	// avoid values near 0 where ReLU is non-differentiable
	x := mat.FromRows([][]float64{{-1.5, 2.5}, {0.5, -3}})
	checkGrad(t, "ReLU", x, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(ReLU(leaf))
	})
}

func TestSigmoidGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := mat.Randn(3, 3, 1, rng)
	checkGrad(t, "Sigmoid", x, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(Sigmoid(leaf))
	})
}

func TestSoftmaxGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := mat.Randn(3, 4, 1, rng)
	w := mat.Randn(3, 4, 1, rng)
	checkGrad(t, "Softmax", x, func(tp *Tape, leaf *Node) *Node {
		return SumAll(Mul(Softmax(leaf), tp.Const(w)))
	})
}

func TestLogSoftmaxGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := mat.Randn(3, 4, 1, rng)
	w := mat.Randn(3, 4, 1, rng)
	checkGrad(t, "LogSoftmax", x, func(tp *Tape, leaf *Node) *Node {
		return SumAll(Mul(LogSoftmax(leaf), tp.Const(w)))
	})
}

func TestDropoutGradAndScaling(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 2, 3, 4}})
	// deterministic noise: same seed in every rebuild
	checkGrad(t, "Dropout", x, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(Dropout(leaf, 0.5, true, rand.New(rand.NewSource(99))))
	})
	// eval mode is identity
	tp := NewTape()
	n := tp.Const(x)
	out := Dropout(n, 0.5, false, rand.New(rand.NewSource(1)))
	if out != n {
		t.Fatal("Dropout in eval mode should be identity")
	}
	// surviving elements are scaled by 1/keep
	tp2 := NewTape()
	out2 := Dropout(tp2.Const(x), 0.5, true, rand.New(rand.NewSource(5)))
	for i, v := range out2.Value.Data {
		if v != 0 && math.Abs(v-2*x.Data[i]) > 1e-12 {
			t.Fatalf("dropout scaling wrong at %d: %v", i, v)
		}
	}
}

func TestGumbelSoftmaxSoftGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := mat.Randn(3, 2, 1, rng)
	w := mat.Randn(3, 2, 1, rng)
	checkGrad(t, "GumbelSoftmax", x, func(tp *Tape, leaf *Node) *Node {
		gs := GumbelSoftmax(leaf, 0.7, false, rand.New(rand.NewSource(77)))
		return SumAll(Mul(gs, tp.Const(w)))
	})
}

func TestGumbelSoftmaxHardIsOneHot(t *testing.T) {
	tp := NewTape()
	rng := rand.New(rand.NewSource(14))
	x := tp.Var(mat.Randn(5, 3, 1, rng))
	out := GumbelSoftmax(x, 0.5, true, rng)
	for i := 0; i < out.Rows(); i++ {
		row := out.Value.Row(i)
		var ones, sum float64
		for _, v := range row {
			sum += v
			if v == 1 {
				ones++
			}
		}
		if ones != 1 || sum != 1 {
			t.Fatalf("row %d not one-hot: %v", i, row)
		}
	}
	// straight-through: gradient still flows
	tp.Backward(SumAll(Mul(out, tp.Const(mat.Randn(5, 3, 1, rng)))))
	if x.Grad() == nil {
		t.Fatal("straight-through gradient missing")
	}
}

func TestCrossEntropyLabelsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := mat.Randn(4, 3, 1, rng)
	labels := []int{0, 2, 1, 2}
	checkGrad(t, "CrossEntropyLabels", x, func(tp *Tape, leaf *Node) *Node {
		return CrossEntropyLabels(leaf, labels)
	})
}

func TestCrossEntropyValue(t *testing.T) {
	tp := NewTape()
	// uniform logits over 4 classes → CE = log 4
	logits := tp.Const(mat.New(2, 4))
	loss := CrossEntropyLabels(logits, []int{1, 3})
	if math.Abs(loss.Scalar()-math.Log(4)) > 1e-12 {
		t.Fatalf("CE = %v want log4", loss.Scalar())
	}
}

func TestSoftCrossEntropyGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := mat.Randn(4, 3, 1, rng)
	target := mat.SoftmaxRows(mat.Randn(4, 3, 1, rng))
	for _, temp := range []float64{1, 2.5} {
		tc := temp
		checkGrad(t, "SoftCrossEntropy", x, func(tp *Tape, leaf *Node) *Node {
			return SoftCrossEntropy(leaf, target, tc)
		})
	}
}

func TestSoftCrossEntropyMinimizedAtTarget(t *testing.T) {
	// CE(p, q) ≥ H(p) with equality iff q = p.
	tp := NewTape()
	target := mat.SoftmaxRows(mat.FromRows([][]float64{{1, 2, 3}}))
	logits := mat.FromRows([][]float64{{1, 2, 3}})
	atTarget := SoftCrossEntropy(tp.Const(logits), target, 1).Scalar()
	away := SoftCrossEntropy(tp.Const(mat.FromRows([][]float64{{3, 2, 1}})), target, 1).Scalar()
	if atTarget >= away {
		t.Fatalf("CE at target %v should be < CE away %v", atTarget, away)
	}
}

func TestNLLFromProbsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := mat.Randn(3, 4, 1, rng)
	labels := []int{1, 0, 3}
	checkGrad(t, "NLLFromProbs", x, func(tp *Tape, leaf *Node) *Node {
		return NLLFromProbs(Softmax(leaf), labels)
	})
}

func TestRowSumsNodeGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := mat.Randn(4, 3, 1, rng)
	checkGrad(t, "RowSumsNode", x, func(tp *Tape, leaf *Node) *Node {
		return SumSquares(RowSumsNode(leaf))
	})
}

func TestChainedMLPGradCheck(t *testing.T) {
	// Full two-layer MLP with every training op composed together.
	rng := rand.New(rand.NewSource(20))
	x := mat.Randn(6, 5, 1, rng)
	w1 := mat.Randn(5, 4, 0.5, rng)
	b1 := mat.Randn(1, 4, 0.1, rng)
	w2 := mat.Randn(4, 3, 0.5, rng)
	b2 := mat.Randn(1, 3, 0.1, rng)
	labels := []int{0, 1, 2, 0, 1, 2}
	build := func(tp *Tape, lw1 *Node) *Node {
		h := ReLU(AddBias(MatMul(tp.Const(x), lw1), tp.Const(b1)))
		logits := AddBias(MatMul(h, tp.Const(w2)), tp.Const(b2))
		ce := CrossEntropyLabels(logits, labels)
		reg := Scale(0.01, SumSquares(lw1))
		return Add(ce, reg)
	}
	checkGrad(t, "MLP-w1", w1, build)
}

func TestNoGradToConsts(t *testing.T) {
	tp := NewTape()
	c := tp.Const(mat.FromRows([][]float64{{1, 2}}))
	v := tp.Var(mat.FromRows([][]float64{{3, 4}}))
	loss := SumAll(Mul(c, v))
	tp.Backward(loss)
	if c.Grad() != nil {
		t.Fatal("constant received a gradient")
	}
	if v.Grad() == nil {
		t.Fatal("variable missing gradient")
	}
}

func TestGradAccumulatesAcrossUses(t *testing.T) {
	tp := NewTape()
	v := tp.Var(mat.FromRows([][]float64{{2}}))
	// loss = x + x → dx = 2
	loss := SumAll(Add(v, v))
	tp.Backward(loss)
	if got := v.Grad().At(0, 0); got != 2 {
		t.Fatalf("grad = %v want 2", got)
	}
}

func TestBackwardOnForeignTapePanics(t *testing.T) {
	tp1, tp2 := NewTape(), NewTape()
	n := tp1.Var(mat.New(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign tape")
		}
	}()
	tp2.Backward(n)
}
