package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// pathGraph returns the adjacency of a path 0-1-2-...-(n-1).
func pathGraph(n int) *CSR {
	src := make([]int, 0, n-1)
	dst := make([]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		src = append(src, i)
		dst = append(dst, i+1)
	}
	return FromEdges(n, src, dst, true)
}

// randomGraph returns a random undirected adjacency with ~p edge density.
func randomGraph(n int, p float64, rng *rand.Rand) *CSR {
	var src, dst []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				src = append(src, i)
				dst = append(dst, j)
			}
		}
	}
	return FromEdges(n, src, dst, true)
}

// mulDense is a·x over every row: MulDenseRows with all of a's rows selected.
func mulDense(a *CSR, x *mat.Matrix) *mat.Matrix {
	out := mat.New(a.Rows, x.Cols)
	a.MulDenseRows(identityRows(a.Rows), x, out)
	return out
}

func TestFromEdgesBasic(t *testing.T) {
	a := FromEdges(3, []int{0, 1}, []int{1, 2}, true)
	if a.NNZ() != 4 {
		t.Fatalf("NNZ = %d want 4", a.NNZ())
	}
	if a.At(0, 1) != 1 || a.At(1, 0) != 1 || a.At(1, 2) != 1 || a.At(2, 1) != 1 {
		t.Fatal("symmetric entries missing")
	}
	if a.At(0, 2) != 0 || a.At(0, 0) != 0 {
		t.Fatal("unexpected entries")
	}
}

func TestFromEdgesDedupAndSelfLoopDrop(t *testing.T) {
	a := FromEdges(2, []int{0, 0, 0, 1}, []int{1, 1, 0, 1}, true)
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d want 2 (dedup + self-loop drop)", a.NNZ())
	}
}

func TestFromEdgesDirected(t *testing.T) {
	a := FromEdges(3, []int{0}, []int{2}, false)
	if a.At(0, 2) != 1 || a.At(2, 0) != 0 {
		t.Fatal("directed edge stored wrong")
	}
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromEdges(2, []int{0}, []int{5}, false)
}

func TestAddSelfLoops(t *testing.T) {
	a := pathGraph(3)
	l := a.AddSelfLoops()
	if l.NNZ() != a.NNZ()+3 {
		t.Fatalf("NNZ = %d", l.NNZ())
	}
	for i := 0; i < 3; i++ {
		if l.At(i, i) != 1 {
			t.Fatalf("missing self loop at %d", i)
		}
	}
	// idempotent
	l2 := l.AddSelfLoops()
	if l2.NNZ() != l.NNZ() {
		t.Fatal("AddSelfLoops not idempotent")
	}
}

func TestDegrees(t *testing.T) {
	a := pathGraph(4)
	d := a.Degrees()
	want := []float64{1, 2, 2, 1}
	for i, v := range want {
		if d[i] != v {
			t.Fatalf("deg[%d] = %v want %v", i, d[i], v)
		}
	}
}

func TestLoopedDegrees(t *testing.T) {
	a := pathGraph(3)
	d := LoopedDegrees(a)
	if d[0] != 2 || d[1] != 3 || d[2] != 2 {
		t.Fatalf("LoopedDegrees = %v", d)
	}
}

func TestTransposeSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomGraph(20, 0.2, rng)
	if d := a.ToDense(); !mat.Equal(d, d.T()) {
		t.Fatal("undirected adjacency should be symmetric")
	}
}

func TestMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomGraph(30, 0.15, rng)
	na := NormalizedAdjacency(a, GammaSymmetric)
	x := mat.Randn(30, 7, 1, rng)
	got := mulDense(na, x)
	want := mat.MatMul(na.ToDense(), x)
	if !mat.ApproxEqual(got, want, 1e-10) {
		t.Fatal("SpMM differs from dense reference")
	}
}

func TestMulDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n8, f8 uint8, p float64) bool {
		n := int(n8%15) + 2
		fdim := int(f8%6) + 1
		p = math.Abs(p)
		p -= math.Floor(p)
		a := randomGraph(n, p, rng)
		x := mat.Randn(n, fdim, 1, rng)
		return mat.ApproxEqual(mulDense(a, x), mat.MatMul(a.ToDense(), x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMulDenseRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomGraph(20, 0.2, rng)
	na := NormalizedAdjacency(a, GammaSymmetric)
	x := mat.Randn(20, 5, 1, rng)
	full := mulDense(na, x)
	out := mat.New(20, 5)
	out.Fill(-999) // untouched rows must stay
	rows := []int{3, 7, 11}
	macs := na.MulDenseRows(rows, x, out)
	wantMACs := na.NNZRows(rows) * 5
	if macs != wantMACs {
		t.Fatalf("MACs = %d want %d", macs, wantMACs)
	}
	for _, r := range rows {
		for j := 0; j < 5; j++ {
			if math.Abs(out.At(r, j)-full.At(r, j)) > 1e-10 {
				t.Fatalf("row %d mismatch", r)
			}
		}
	}
	if out.At(0, 0) != -999 {
		t.Fatal("untouched row was modified")
	}
}

func TestMulDenseRowsOverwritesStale(t *testing.T) {
	a := pathGraph(3)
	na := NormalizedAdjacency(a, GammaRowStochastic)
	x := mat.Randn(3, 2, 1, rand.New(rand.NewSource(5)))
	out := mat.New(3, 2)
	out.Fill(123)
	na.MulDenseRows([]int{1}, x, out)
	want := mulDense(na, x)
	if math.Abs(out.At(1, 0)-want.At(1, 0)) > 1e-12 {
		t.Fatal("row not overwritten cleanly")
	}
}

func TestMulDenseRowsParallelMatchesFull(t *testing.T) {
	// Large enough that the nnz-balanced fan-out actually engages on
	// multi-core machines (work ≥ par.Threshold); results must match the
	// full product exactly on the selected rows either way.
	rng := rand.New(rand.NewSource(12))
	n, f := 400, 32
	a := randomGraph(n, 0.05, rng)
	na := NormalizedAdjacency(a, GammaSymmetric)
	x := mat.Randn(n, f, 1, rng)
	full := mulDense(na, x)
	var rows []int
	for i := 0; i < n; i += 3 {
		rows = append(rows, i)
	}
	out := mat.New(n, f)
	macs := na.MulDenseRows(rows, x, out)
	if want := na.NNZRows(rows) * f; macs != want {
		t.Fatalf("MACs = %d want %d", macs, want)
	}
	for _, r := range rows {
		for j := 0; j < f; j++ {
			if out.At(r, j) != full.At(r, j) {
				t.Fatalf("row %d col %d: %v != %v", r, j, out.At(r, j), full.At(r, j))
			}
		}
	}
}

func TestNormalizedAdjacencyRowStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomGraph(25, 0.15, rng)
	na := NormalizedAdjacency(a, GammaRowStochastic)
	for i, s := range na.ToDense().RowSums() {
		if math.Abs(s-1) > 1e-10 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestNormalizedAdjacencyColStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomGraph(25, 0.15, rng)
	na := NormalizedAdjacency(a, GammaColStochastic)
	for j, s := range na.ToDense().ColSums() {
		if math.Abs(s-1) > 1e-10 {
			t.Fatalf("col %d sums to %v", j, s)
		}
	}
}

func TestNormalizedAdjacencySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomGraph(25, 0.15, rng)
	na := NormalizedAdjacency(a, GammaSymmetric)
	d := na.ToDense()
	if !mat.ApproxEqual(d, d.T(), 1e-12) {
		t.Fatal("symmetric normalization not symmetric")
	}
}

func TestNormalizedAdjacencyValues(t *testing.T) {
	// path 0-1: d̃ = [2,2]; symmetric value = 1/sqrt(2*2) = 0.5
	a := pathGraph(2)
	na := NormalizedAdjacency(a, GammaSymmetric)
	if math.Abs(na.At(0, 1)-0.5) > 1e-12 {
		t.Fatalf("off-diag = %v", na.At(0, 1))
	}
	if math.Abs(na.At(0, 0)-0.5) > 1e-12 {
		t.Fatalf("diag = %v", na.At(0, 0))
	}
}

func TestNormalizedAdjacencyGammaRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NormalizedAdjacency(pathGraph(2), 1.5)
}

func TestNormalizedAdjacencyIsolatedNode(t *testing.T) {
	// node 2 isolated: self-loop gives degree 1, no NaN/Inf
	a := FromEdges(3, []int{0}, []int{1}, true)
	na := NormalizedAdjacency(a, GammaSymmetric)
	if na.At(2, 2) != 1 {
		t.Fatalf("isolated self loop = %v", na.At(2, 2))
	}
	for _, v := range na.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf in normalized values")
		}
	}
}

func TestDominantEigenvectorProperty(t *testing.T) {
	// Â·v = v where v_i = d̃_i^γ (Eq. 7 foundation).
	rng := rand.New(rand.NewSource(10))
	a := randomGraph(25, 0.2, rng)
	for _, gamma := range []float64{0, 0.25, 0.5, 0.75, 1} {
		na := NormalizedAdjacency(a, gamma)
		deg := LoopedDegrees(a)
		v := mat.New(25, 1)
		for i, d := range deg {
			v.Set(i, 0, math.Pow(d, gamma))
		}
		got := mulDense(na, v)
		if !mat.ApproxEqual(got, v, 1e-10) {
			t.Fatalf("gamma=%v: Âv != v", gamma)
		}
	}
}

func TestNNZRows(t *testing.T) {
	a := pathGraph(4)
	if got := a.NNZRows([]int{0, 1}); got != 3 {
		t.Fatalf("NNZRows = %d want 3", got)
	}
	if got := a.NNZRows(nil); got != 0 {
		t.Fatalf("NNZRows(nil) = %d", got)
	}
}

func TestEmptyGraph(t *testing.T) {
	a := FromEdges(5, nil, nil, true)
	if a.NNZ() != 0 {
		t.Fatal("empty graph has edges")
	}
	na := NormalizedAdjacency(a, GammaSymmetric)
	if na.NNZ() != 5 { // self loops only
		t.Fatalf("NNZ = %d want 5", na.NNZ())
	}
	x := mat.Randn(5, 3, 1, rand.New(rand.NewSource(11)))
	if !mat.ApproxEqual(mulDense(na, x), x, 1e-12) {
		t.Fatal("identity propagation on empty graph failed")
	}
}

func TestMulDenseRowsCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomGraph(30, 0.15, rng)
	na := NormalizedAdjacency(a, GammaSymmetric)
	x := mat.Randn(30, 6, 1, rng)
	full := mulDense(na, x)
	rows := []int{2, 5, 9, 17, 28}
	out := mat.New(len(rows), 6)
	out.Fill(-999) // stale contents must be overwritten
	macs := MulRowsInto(na, rows, nil, na.Val, x.Data, x.Cols, 1, out.Data)
	if want := na.NNZRows(rows) * 6; macs != want {
		t.Fatalf("MACs = %d want %d", macs, want)
	}
	for k, r := range rows {
		for j := 0; j < 6; j++ {
			if out.At(k, j) != full.At(r, j) {
				t.Fatalf("compact row %d (global %d) col %d: %v != %v",
					k, r, j, out.At(k, j), full.At(r, j))
			}
		}
	}
}

func TestMulDenseRowsCompactParallelMatchesFull(t *testing.T) {
	// Large enough that the nnz-balanced fan-out engages on multi-core
	// machines; compact output row k must equal full-product row rows[k].
	rng := rand.New(rand.NewSource(22))
	n, f := 400, 32
	a := randomGraph(n, 0.05, rng)
	na := NormalizedAdjacency(a, GammaSymmetric)
	x := mat.Randn(n, f, 1, rng)
	full := mulDense(na, x)
	var rows []int
	for i := 1; i < n; i += 3 {
		rows = append(rows, i)
	}
	out := mat.New(len(rows), f)
	MulRowsInto(na, rows, nil, na.Val, x.Data, x.Cols, 1, out.Data)
	for k, r := range rows {
		for j := 0; j < f; j++ {
			if out.At(k, j) != full.At(r, j) {
				t.Fatalf("row %d col %d: %v != %v", r, j, out.At(k, j), full.At(r, j))
			}
		}
	}
}

// extractIndex builds the monotone global→local map of a sorted universe.
func extractIndex(n int, universe []int) []int32 {
	toLocal := make([]int32, n)
	for i := range toLocal {
		toLocal[i] = -1
	}
	for i, v := range universe {
		toLocal[v] = int32(i)
	}
	return toLocal
}

func TestExtractRowsInto(t *testing.T) {
	// Path 0-1-2-3-4 (+ self-loops via normalization). Universe {1,2,3,4};
	// extract rows {2,3}: their neighbors {1,2,3,4} all lie inside.
	na := NormalizedAdjacency(pathGraph(5), GammaSymmetric)
	universe := []int{1, 2, 3, 4}
	toLocal := extractIndex(5, universe)
	var sub CSR
	na.ExtractRowsInto([]int{2, 3}, toLocal, len(universe), &sub)
	if sub.Rows != 4 || sub.Cols != 4 {
		t.Fatalf("sub shape %dx%d want 4x4", sub.Rows, sub.Cols)
	}
	if sub.NNZ() != na.NNZRows([]int{2, 3}) {
		t.Fatalf("sub NNZ %d want %d", sub.NNZ(), na.NNZRows([]int{2, 3}))
	}
	for _, r := range []int{2, 3} {
		lr := int(toLocal[r])
		cols, vals := sub.RowIndices(lr), sub.RowValues(lr)
		wantCols, wantVals := na.RowIndices(r), na.RowValues(r)
		if len(cols) != len(wantCols) {
			t.Fatalf("row %d: %d entries want %d", r, len(cols), len(wantCols))
		}
		for k := range cols {
			if universe[cols[k]] != int(wantCols[k]) || vals[k] != wantVals[k] {
				t.Fatalf("row %d entry %d: (%d,%v) want (%d,%v)",
					r, k, universe[cols[k]], vals[k], wantCols[k], wantVals[k])
			}
		}
		prev := int32(-1)
		for _, c := range cols {
			if c <= prev {
				t.Fatalf("row %d columns not sorted: %v", r, cols)
			}
			prev = c
		}
	}
	// Rows outside the extraction set must be empty.
	for _, lr := range []int{0, 3} {
		if sub.RowNNZ(lr) != 0 {
			t.Fatalf("unextracted local row %d has %d entries", lr, sub.RowNNZ(lr))
		}
	}
}

func TestExtractRowsIntoMatchesProduct(t *testing.T) {
	// A·x restricted to extracted rows must equal the compact product
	// sub·x_local exactly, for a random graph and a neighbor-closed set.
	rng := rand.New(rand.NewSource(23))
	n, f := 60, 7
	na := NormalizedAdjacency(randomGraph(n, 0.08, rng), GammaSymmetric)
	// Universe: rows {0..29} plus every neighbor (closure).
	seen := make(map[int]bool)
	rows := []int{}
	for i := 0; i < 30; i++ {
		rows = append(rows, i)
		seen[i] = true
		for _, c := range na.RowIndices(i) {
			seen[int(c)] = true
		}
	}
	var universe []int
	for v := 0; v < n; v++ {
		if seen[v] {
			universe = append(universe, v)
		}
	}
	toLocal := extractIndex(n, universe)
	var sub CSR
	na.ExtractRowsInto(rows, toLocal, len(universe), &sub)

	x := mat.Randn(n, f, 1, rng)
	xLocal := x.GatherRows(universe)
	full := mulDense(na, x)
	out := mat.New(len(universe), f)
	localRows := make([]int, len(rows))
	for i, r := range rows {
		localRows[i] = int(toLocal[r])
	}
	macs := sub.MulDenseRows(localRows, xLocal, out)
	if want := na.NNZRows(rows) * f; macs != want {
		t.Fatalf("compact MACs = %d want %d (nnz must survive extraction)", macs, want)
	}
	for _, r := range rows {
		for j := 0; j < f; j++ {
			if out.At(int(toLocal[r]), j) != full.At(r, j) {
				t.Fatalf("row %d col %d: compact %v != full %v",
					r, j, out.At(int(toLocal[r]), j), full.At(r, j))
			}
		}
	}
}

func TestExtractRowsIntoReuse(t *testing.T) {
	// A second extraction into the same CSR must fully replace the first,
	// including when the new set is smaller (no stale rows or entries).
	na := NormalizedAdjacency(pathGraph(6), GammaSymmetric)
	all := []int{0, 1, 2, 3, 4, 5}
	toLocal := extractIndex(6, all)
	var sub CSR
	na.ExtractRowsInto(all, toLocal, 6, &sub)
	big := sub.NNZ()
	na.ExtractRowsInto([]int{2}, toLocal, 6, &sub)
	if sub.NNZ() != na.RowNNZ(2) {
		t.Fatalf("reused sub NNZ %d want %d (had %d)", sub.NNZ(), na.RowNNZ(2), big)
	}
	for lr := 0; lr < 6; lr++ {
		if lr != 2 && sub.RowNNZ(lr) != 0 {
			t.Fatalf("stale row %d after reuse", lr)
		}
	}
}

func TestExtractRowsIntoUnmappedNeighborPanics(t *testing.T) {
	na := NormalizedAdjacency(pathGraph(4), GammaSymmetric)
	universe := []int{1, 2} // neighbor 0 of row 1 is outside
	toLocal := extractIndex(4, universe)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped neighbor did not panic")
		}
	}()
	var sub CSR
	na.ExtractRowsInto([]int{1}, toLocal, 2, &sub)
}
