package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
)

func TestTempSoftmax(t *testing.T) {
	logits := mat.FromRows([][]float64{{2, 0}})
	// T → ∞ flattens toward uniform; T = 1 is plain softmax
	sharp := tempSoftmax(logits, 1)
	flat := tempSoftmax(logits, 100)
	if !(sharp.At(0, 0) > flat.At(0, 0)) {
		t.Fatalf("temperature did not soften: %v vs %v", sharp.At(0, 0), flat.At(0, 0))
	}
	if s := flat.RowSums()[0]; math.Abs(s-1) > 1e-9 {
		t.Fatalf("soft targets sum to %v", s)
	}
}

func TestCrossEntropyNodesMatchesSoftCE(t *testing.T) {
	// With a constant target, the on-tape crossEntropyNodes must equal
	// tensor.SoftCrossEntropy in value and in the student gradient.
	rng := rand.New(rand.NewSource(1))
	logits := mat.Randn(5, 4, 1, rng)
	target := mat.SoftmaxRows(mat.Randn(5, 4, 1, rng))
	temp := 1.7

	tp1 := tensor.NewTape()
	l1 := tp1.Var(logits.Clone())
	loss1 := tensor.SoftCrossEntropy(l1, target, temp)
	tp1.Backward(loss1)

	tp2 := tensor.NewTape()
	l2 := tp2.Var(logits.Clone())
	loss2 := crossEntropyNodes(l2, tp2.Const(target), temp)
	tp2.Backward(loss2)

	if math.Abs(loss1.Scalar()-loss2.Scalar()) > 1e-10 {
		t.Fatalf("loss values differ: %v vs %v", loss1.Scalar(), loss2.Scalar())
	}
	if !mat.ApproxEqual(l1.Grad(), l2.Grad(), 1e-10) {
		t.Fatal("gradients differ")
	}
}

func TestCrossEntropyNodesGradFlowsToTarget(t *testing.T) {
	// Unlike SoftCrossEntropy, the node-target version must backprop into
	// the teacher side (that is its purpose for the trainable ensemble).
	rng := rand.New(rand.NewSource(2))
	tp := tensor.NewTape()
	student := tp.Const(mat.Randn(4, 3, 1, rng))
	teacherLogits := tp.Var(mat.Randn(4, 3, 1, rng))
	teacher := tensor.Softmax(teacherLogits)
	loss := crossEntropyNodes(student, teacher, 1.5)
	tp.Backward(loss)
	if teacherLogits.Grad() == nil || teacherLogits.Grad().FrobeniusNorm() == 0 {
		t.Fatal("no gradient reached the teacher")
	}
}

func TestSingleScaleDistillationMovesStudents(t *testing.T) {
	ds := tinyData(t)
	opt := fastOptions("sgc")
	opt.TrainGates = false
	opt.DisableMultiScale = true
	m, err := Train(ds.Graph, ds.Split, opt)
	if err != nil {
		t.Fatal(err)
	}
	// the same pipeline with distillation disabled produces different students
	opt2 := opt
	opt2.DisableDistillation = true
	m2, err := Train(ds.Graph, ds.Split, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Equal(m.Classifiers[1].Weights[0].Value, m2.Classifiers[1].Weights[0].Value) {
		t.Fatal("distillation had no effect on student weights")
	}
	// but the deepest classifier (teacher) is trained identically
	if !mat.Equal(m.Classifiers[m.K].Weights[0].Value, m2.Classifiers[m2.K].Weights[0].Value) {
		t.Fatal("teacher should be unaffected by the distillation flag")
	}
}

func TestLabeledPositions(t *testing.T) {
	pos := LabeledPositions([]int{10, 20, 30, 40}, []int{30, 10})
	if pos[0] != 2 || pos[1] != 0 {
		t.Fatalf("positions = %v", pos)
	}
}

func TestLabeledPositionsPanicsOnForeignNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LabeledPositions([]int{1, 2}, []int{99})
}
