package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
)

func TestBindingSharesNodes(t *testing.T) {
	p := NewParam("w", mat.FromRows([][]float64{{1}}))
	b := Bind()
	n1 := b.Node(p)
	n2 := b.Node(p)
	if n1 != n2 {
		t.Fatal("same parameter bound to two nodes")
	}
}

func TestBindingCollectsGrads(t *testing.T) {
	p := NewParam("w", mat.FromRows([][]float64{{3}}))
	q := NewParam("unused", mat.FromRows([][]float64{{1}}))
	b := Bind()
	node := b.Node(p)
	_ = b.Node(q)
	loss := tensor.SumSquares(node) // d/dw w² = 2w = 6
	b.Backward(loss)
	if got := p.Grad.At(0, 0); got != 6 {
		t.Fatalf("grad = %v want 6", got)
	}
	if q.Grad == nil || q.Grad.At(0, 0) != 0 {
		t.Fatal("unused param should get a zero grad")
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	// minimize (w-5)² from w=0
	p := NewParam("w", mat.FromRows([][]float64{{0}}))
	opt := NewAdam(0.1, 0)
	for i := 0; i < 500; i++ {
		w := p.Value.At(0, 0)
		p.Grad = mat.FromRows([][]float64{{2 * (w - 5)}})
		opt.Step([]*Param{p})
	}
	if got := p.Value.At(0, 0); math.Abs(got-5) > 0.05 {
		t.Fatalf("Adam converged to %v want 5", got)
	}
	if opt.StepCount() != 500 {
		t.Fatalf("step count %d", opt.StepCount())
	}
}

func TestAdamWeightDecayShrinks(t *testing.T) {
	p := NewParam("w", mat.FromRows([][]float64{{10}}))
	p.Grad = nil // pure decay
	opt := NewAdam(0.1, 0.5)
	opt.Step([]*Param{p})
	if got := p.Value.At(0, 0); math.Abs(got-10*(1-0.05)) > 1e-12 {
		t.Fatalf("decayed value %v", got)
	}
}

func TestMLPShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP("clf", 8, []int{16, 4}, 3, 0.2, rng)
	if m.InputDim() != 8 || m.OutputDim() != 3 || m.NumLayers() != 3 {
		t.Fatalf("dims %d %d layers %d", m.InputDim(), m.OutputDim(), m.NumLayers())
	}
	if got := len(m.Params()); got != 6 {
		t.Fatalf("params = %d want 6", got)
	}
	CheckNames(m.Params())
	x := mat.Randn(5, 8, 1, rng)
	logits := m.Logits(x)
	if logits.Rows != 5 || logits.Cols != 3 {
		t.Fatalf("logits %dx%d", logits.Rows, logits.Cols)
	}
	if got := m.MACsPerRow(); got != 8*16+16*4+4*3 {
		t.Fatalf("MACsPerRow = %d", got)
	}
}

func TestMLPLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP("lin", 4, nil, 2, 0, rng)
	if m.NumLayers() != 1 {
		t.Fatalf("layers = %d", m.NumLayers())
	}
	// logits must equal xW+b exactly
	x := mat.Randn(3, 4, 1, rng)
	want := mat.AddRowVec(mat.MatMul(x, m.Weights[0].Value), m.Biases[0].Value.Row(0))
	if !mat.ApproxEqual(m.Logits(x), want, 1e-12) {
		t.Fatal("linear logits mismatch")
	}
}

func TestMLPForwardMatchesLogitsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP("clf", 6, []int{5}, 3, 0.5, rng)
	x := mat.Randn(4, 6, 1, rng)
	b := Bind()
	node := m.Forward(b, b.Const(x), false, rng) // eval: dropout off
	if !mat.ApproxEqual(node.Value, m.Logits(x), 1e-12) {
		t.Fatal("Forward(eval) != Logits")
	}
}

func TestMLPProbsRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP("clf", 5, []int{4}, 3, 0, rng)
	p := m.Probs(mat.Randn(6, 5, 1, rng))
	for _, s := range p.RowSums() {
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("prob row sums to %v", s)
		}
	}
}

func TestMLPCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP("clf", 3, []int{2}, 2, 0, rng)
	c := m.Clone()
	c.Weights[0].Value.Set(0, 0, 999)
	if m.Weights[0].Value.At(0, 0) == 999 {
		t.Fatal("clone shares weights")
	}
}

func TestTrainClassifierLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// two Gaussian blobs
	n := 200
	x := mat.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		x.Set(i, 0, rng.NormFloat64()+float64(4*c))
		x.Set(i, 1, rng.NormFloat64())
	}
	idx := rng.Perm(n)
	train, val := idx[:150], idx[150:]
	m := NewMLP("clf", 2, []int{8}, 2, 0, rng)
	res := TrainClassifier(m, x, labels, train, val, TrainConfig{Epochs: 200, LR: 0.05, Patience: 50, Seed: 1})
	if res.BestValAcc < 0.95 {
		t.Fatalf("val accuracy %v too low for separable data", res.BestValAcc)
	}
}

func TestTrainClassifierEarlyStops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// random labels: no signal, must early-stop before the epoch limit
	n := 60
	x := mat.Randn(n, 4, 1, rng)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	m := NewMLP("clf", 4, nil, 3, 0, rng)
	res := TrainClassifier(m, x, labels, seq(0, 40), seq(40, 60),
		TrainConfig{Epochs: 10000, LR: 0.01, Patience: 5, Seed: 1})
	if !res.EarlyStopped {
		t.Fatal("expected early stop on noise")
	}
	if res.Epochs >= 10000 {
		t.Fatal("ran to the epoch limit")
	}
}

func TestTrainClassifierDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := mat.Randn(50, 3, 1, rng)
	labels := make([]int, 50)
	for i := range labels {
		labels[i] = i % 2
	}
	build := func() *MLP {
		return NewMLP("clf", 3, []int{4}, 2, 0.3, rand.New(rand.NewSource(9)))
	}
	cfg := TrainConfig{Epochs: 20, LR: 0.01, Seed: 5}
	m1, m2 := build(), build()
	TrainClassifier(m1, x, labels, seq(0, 40), seq(40, 50), cfg)
	TrainClassifier(m2, x, labels, seq(0, 40), seq(40, 50), cfg)
	if !mat.Equal(m1.Weights[0].Value, m2.Weights[0].Value) {
		t.Fatal("training not deterministic")
	}
}

func TestTrainClassifierEmptyTrainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewMLP("clf", 2, nil, 2, 0, rand.New(rand.NewSource(1)))
	TrainClassifier(m, mat.New(2, 2), []int{0, 1}, nil, nil, DefaultTrainConfig())
}

// fitProbe is a one-parameter problem for Fit: the loss w² pulls w from 1
// toward 0 by about LR per Adam step.
func fitProbe() (*Param, func(*Binding) *tensor.Node) {
	w := NewParam("w", mat.FromRows([][]float64{{1}}))
	return w, func(b *Binding) *tensor.Node { return tensor.SumSquares(b.Node(w)) }
}

func TestFitNilScoreRunsEveryEpochAndRestoresNothing(t *testing.T) {
	ref, refLoss := fitProbe()
	opt := NewAdam(0.1, 0)
	for i := 0; i < 7; i++ {
		b := Bind()
		b.Backward(refLoss(b))
		opt.Step([]*Param{ref})
	}
	w, loss := fitProbe()
	res := Fit([]*Param{w}, TrainConfig{Epochs: 7, LR: 0.1, Patience: 1}, loss, nil)
	if res.Epochs != 7 || res.EarlyStopped || res.BestValAcc != 0 {
		t.Fatalf("result = %+v, want 7 epochs, no early stop, no score", res)
	}
	if got, want := w.Value.At(0, 0), ref.Value.At(0, 0); got != want {
		t.Fatalf("w = %v after Fit, want %v (the last step's weights)", got, want)
	}
	if want := w.Value.At(0, 0) * w.Value.At(0, 0); res.FinalLoss <= want {
		t.Fatalf("FinalLoss %v is not the last epoch's loss (> %v)", res.FinalLoss, want)
	}
}

func TestFitPatienceZeroNeverStopsEarly(t *testing.T) {
	w, loss := fitProbe()
	res := Fit([]*Param{w}, TrainConfig{Epochs: 50, LR: 0.01}, loss, func() float64 { return 0 })
	if res.Epochs != 50 || res.EarlyStopped {
		t.Fatalf("result = %+v, want all 50 epochs", res)
	}
}

func TestFitRestoresBestWeightsAndStopsEarly(t *testing.T) {
	w, loss := fitProbe()
	var seen []float64
	score := func() float64 {
		seen = append(seen, w.Value.At(0, 0))
		return -math.Abs(float64(len(seen) - 3)) // best after the third epoch
	}
	res := Fit([]*Param{w}, TrainConfig{Epochs: 100, LR: 0.1, Patience: 4}, loss, score)
	// epochs 4..7 do not improve, so the fourth of them stops the fit
	if !res.EarlyStopped || res.Epochs != 7 || len(seen) != 7 {
		t.Fatalf("result = %+v after %d scores, want an early stop after 7 epochs", res, len(seen))
	}
	if res.BestValAcc != 0 {
		t.Fatalf("BestValAcc = %v, want the best score 0", res.BestValAcc)
	}
	if got := w.Value.At(0, 0); got != seen[2] || got == seen[6] {
		t.Fatalf("w = %v, want the third epoch's %v (not the last epoch's %v)", got, seen[2], seen[6])
	}
}

func TestDistillLoss(t *testing.T) {
	b := Bind()
	hard := b.Const(mat.FromRows([][]float64{{2}}))
	soft := b.Const(mat.FromRows([][]float64{{3}}))
	// (1−0.25)·2 + 0.25·2²·3
	if got := DistillLoss(hard, soft, 0.25, 2).Scalar(); got != 4.5 {
		t.Fatalf("DistillLoss = %v, want 4.5", got)
	}
}

func TestAccuracyScoreNilWithoutLabels(t *testing.T) {
	if AccuracyScore(func() []int { return nil }, nil) != nil {
		t.Fatal("an empty validation set must give a nil score")
	}
	score := AccuracyScore(func() []int { return []int{1, 0} }, []int{1, 1})
	if score() != 0.5 {
		t.Fatalf("score = %v, want 0.5", score())
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3}, []int{1, 0, 3}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestCheckNamesPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CheckNames([]*Param{NewParam("a", mat.New(1, 1)), NewParam("a", mat.New(1, 1))})
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
