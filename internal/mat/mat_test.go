package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAt(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if m.At(0, 0) != 0 {
		t.Fatalf("zero value not preserved")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromDataLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad data length")
		}
	}()
	FromData(2, 2, []float64{1, 2, 3})
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(r, c uint8) bool {
		m := Randn(int(r%20)+1, int(c%20)+1, 1, rng)
		return Equal(m, m.T().T())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got := Add(a, b).At(1, 1); got != 12 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).At(0, 0); got != 4 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(2, a).At(1, 0); got != 6 {
		t.Fatalf("Scale = %v", got)
	}
	if got := AddScaled(a, 10, b).At(0, 1); got != 62 {
		t.Fatalf("AddScaled = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	a.AddIn(FromRows([][]float64{{1, 1}}))
	a.ScaleIn(3)
	a.SubIn(FromRows([][]float64{{0, 9}}))
	want := FromRows([][]float64{{6, 0}})
	if !Equal(a, want) {
		t.Fatalf("got %v want %v", a, want)
	}
}

func TestMulDivElem(t *testing.T) {
	a := FromRows([][]float64{{2, 3}})
	b := FromRows([][]float64{{4, 6}})
	if got := MulElem(a, b); !Equal(got, FromRows([][]float64{{8, 18}})) {
		t.Fatalf("MulElem = %v", got)
	}
}

func TestAddShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	Add(New(1, 2), New(2, 1))
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want) {
		t.Fatalf("MatMul = %v want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(7, 7, 1, rng)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Data[i*7+i] = 1
	}
	if !ApproxEqual(MatMul(a, id), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !ApproxEqual(MatMul(id, a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

// naiveMatMul is the reference triple loop used to validate the parallel kernel.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulMatchesNaiveLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(67, 41, 1, rng) // above parallel threshold with 59 cols below
	b := Randn(41, 59, 1, rng)
	if !ApproxEqual(MatMul(a, b), naiveMatMul(a, b), 1e-9) {
		t.Fatal("parallel GEMM differs from naive")
	}
}

func TestMatMulProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(m8, k8, n8 uint8) bool {
		m, k, n := int(m8%12)+1, int(k8%12)+1, int(n8%12)+1
		a := Randn(m, k, 1, rng)
		b := Randn(k, n, 1, rng)
		return ApproxEqual(MatMul(a, b), naiveMatMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTNAndNT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Randn(13, 7, 1, rng)
	b := Randn(13, 9, 1, rng)
	if !ApproxEqual(MatMulTN(a, b), MatMul(a.T(), b), 1e-9) {
		t.Fatal("MatMulTN differs from explicit transpose")
	}
	c := Randn(5, 7, 1, rng)
	if !ApproxEqual(MatMulNT(a, c), MatMul(a, c.T()), 1e-9) {
		t.Fatal("MatMulNT differs from explicit transpose")
	}
}

func TestMatMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Randn(4, 5, 1, rng)
	b := Randn(5, 3, 1, rng)
	dst := New(4, 3)
	dst.Fill(42) // must be overwritten, not accumulated
	MatMulInto(dst, a, b)
	if !ApproxEqual(dst, MatMul(a, b), 1e-12) {
		t.Fatal("MatMulInto did not overwrite dst")
	}
}

func TestMatVecAndVecMat(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := MatVec(a, []float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MatVec = %v", got)
	}
}

func TestGatherRows(t *testing.T) {
	m := FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}})
	g := m.GatherRows([]int{2, 0})
	want := FromRows([][]float64{{2, 2}, {0, 0}})
	if !Equal(g, want) {
		t.Fatalf("GatherRows = %v", g)
	}
}

func TestScatterAddRows(t *testing.T) {
	m := New(3, 2)
	src := FromRows([][]float64{{1, 1}, {2, 2}})
	m.ScatterAddRows([]int{2, 0}, src)
	m.ScatterAddRows([]int{0, 0}, src) // duplicate target accumulates
	want := FromRows([][]float64{{5, 5}, {0, 0}, {1, 1}})
	if !Equal(m, want) {
		t.Fatalf("ScatterAddRows = %v want %v", m, want)
	}
}

func TestConcat(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4, 5}})
	h := ConcatCols(a, b)
	if h.Cols != 5 || h.At(0, 4) != 5 {
		t.Fatalf("ConcatCols = %v", h)
	}
}

func TestSliceCols(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}})
	s := m.SliceCols(1, 3)
	want := FromRows([][]float64{{2, 3}, {6, 7}})
	if !Equal(s, want) {
		t.Fatalf("SliceCols = %v", s)
	}
}

func TestReductions(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {3, 4}})
	if m.Sum() != 6 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.Mean() != 1.5 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if m.Max() != 4 || m.Min() != -2 {
		t.Fatalf("Max/Min = %v/%v", m.Max(), m.Min())
	}
	rs := m.RowSums()
	if rs[0] != -1 || rs[1] != 7 {
		t.Fatalf("RowSums = %v", rs)
	}
	cs := m.ColSums()
	if cs[0] != 4 || cs[1] != 2 {
		t.Fatalf("ColSums = %v", cs)
	}
	if math.Abs(m.FrobeniusNorm()-math.Sqrt(30)) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v", m.FrobeniusNorm())
	}
}

func TestRowNormsAndDistances(t *testing.T) {
	a := FromRows([][]float64{{3, 4}, {0, 0}})
	b := FromRows([][]float64{{0, 0}, {1, 1}})
	d := RowDistances(a, b)
	if d[0] != 5 || math.Abs(d[1]-math.Sqrt2) > 1e-12 {
		t.Fatalf("RowDistances = %v", d)
	}
}

func TestArgmaxRows(t *testing.T) {
	m := FromRows([][]float64{{1, 9, 2}, {7, 0, 3}})
	am := m.ArgmaxRows()
	if am[0] != 1 || am[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", am)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(r, c uint8) bool {
		m := Randn(int(r%10)+1, int(c%10)+1, 5, rng)
		sm := SoftmaxRows(m)
		for _, s := range sm.RowSums() {
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		for _, v := range sm.Data {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m := FromRows([][]float64{{1000, 1001, 999}})
	sm := SoftmaxRows(m)
	for _, v := range sm.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax unstable: %v", sm)
		}
	}
	if s := sm.RowSums()[0]; math.Abs(s-1) > 1e-9 {
		t.Fatalf("softmax sum = %v", s)
	}
}

func TestLogSoftmaxConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := Randn(5, 6, 3, rng)
	ls := LogSoftmaxRows(m)
	sm := SoftmaxRows(m)
	if !ApproxEqual(Apply(ls, math.Exp), sm, 1e-9) {
		t.Fatal("exp(logsoftmax) != softmax")
	}
}

func TestReLUAndSigmoid(t *testing.T) {
	m := FromRows([][]float64{{-1, 0, 2}})
	r := ReLU(m)
	if !Equal(r, FromRows([][]float64{{0, 0, 2}})) {
		t.Fatalf("ReLU = %v", r)
	}
	s := Sigmoid(FromRows([][]float64{{0}}))
	if math.Abs(s.At(0, 0)-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) = %v", s.At(0, 0))
	}
}

func TestAddRowVecMulColVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := AddRowVec(m, []float64{10, 20})
	if !Equal(got, FromRows([][]float64{{11, 22}, {13, 24}})) {
		t.Fatalf("AddRowVec = %v", got)
	}
	got = MulColVec(m, []float64{2, 3})
	if !Equal(got, FromRows([][]float64{{2, 4}, {9, 12}})) {
		t.Fatalf("MulColVec = %v", got)
	}
}

func TestApply(t *testing.T) {
	m := FromRows([][]float64{{1, 4}})
	got := Apply(m, math.Sqrt)
	if !Equal(got, FromRows([][]float64{{1, 2}})) {
		t.Fatalf("Apply = %v", got)
	}
}

func TestApproxEqual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.0001, 2}})
	if !ApproxEqual(a, b, 1e-3) {
		t.Fatal("should be approx equal at 1e-3")
	}
	if ApproxEqual(a, b, 1e-6) {
		t.Fatal("should differ at 1e-6")
	}
	if ApproxEqual(a, New(2, 1), 1) {
		t.Fatal("shape mismatch should be unequal")
	}
}

func TestRandnDeterminism(t *testing.T) {
	a := Randn(3, 3, 1, rand.New(rand.NewSource(42)))
	b := Randn(3, 3, 1, rand.New(rand.NewSource(42)))
	if !Equal(a, b) {
		t.Fatal("Randn not deterministic for fixed seed")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := New(0, 0)
	if m.Sum() != 0 || m.Mean() != 0 {
		t.Fatal("empty matrix reductions")
	}
	if got := MatMul(New(0, 3), New(3, 0)); got.Rows != 0 || got.Cols != 0 {
		t.Fatal("empty matmul shape")
	}
}

func BenchmarkGEMM128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(128, 128, 1, rng)
	y := Randn(128, 128, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}
