package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/par"
)

// The implicit operator's contract: every row it emits — whole, cut to a
// local universe, or multiplied — is the row of the materialized
// NormalizedAdjacency of the same graph, columns and value bits, after any
// sequence of growth deltas patched in with only the dirty rows named.

// csrBitsEqual is csrEqual on the value bits (−0 ≠ +0, NaN = NaN).
func csrBitsEqual(a, b *CSR) error {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return fmt.Errorf("shape %dx%d/%d vs %dx%d/%d", a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i+1] != b.RowPtr[i+1] {
			return fmt.Errorf("row %d ends at %d vs %d", i, a.RowPtr[i+1], b.RowPtr[i+1])
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.Col[k] != b.Col[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
				return fmt.Errorf("row %d entry %d: (%d, %v) vs (%d, %v)", i, k-a.RowPtr[i], a.Col[k], a.Val[k], b.Col[k], b.Val[k])
			}
		}
	}
	return nil
}

// checkNormalized compares op against want, the materialized matrix of the
// same graph and degrees, through every way op emits rows; pick chooses the
// row subset and the universe the cut forms run on.
func checkNormalized(op *Normalized, want *CSR, pick *rand.Rand) error {
	n := want.Rows
	if op.N() != n || op.NNZ() != want.NNZ() {
		return fmt.Errorf("operator is %d rows/%d entries, materialized %d/%d", op.N(), op.NNZ(), n, want.NNZ())
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
		if op.RowNNZ(i) != want.RowNNZ(i) {
			return fmt.Errorf("row %d: RowNNZ %d vs %d", i, op.RowNNZ(i), want.RowNNZ(i))
		}
	}
	var whole CSR
	op.RowsInto(all, nil, n, &whole)
	if err := csrBitsEqual(&whole, want); err != nil {
		return fmt.Errorf("RowsInto(all): %w", err)
	}
	if n == 0 {
		return nil
	}
	// A neighbor-closed universe: some rows and everything they touch.
	inRows, inUniverse := make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		if pick.Intn(3) == 0 {
			inRows[i], inUniverse[i] = true, true
			for _, c := range want.RowIndices(i) {
				inUniverse[c] = true
			}
		}
	}
	var rows, universe []int
	toLocal := make([]int32, n)
	for i := 0; i < n; i++ {
		toLocal[i] = -1
		if inUniverse[i] {
			toLocal[i] = int32(len(universe))
			universe = append(universe, i)
		}
		if inRows[i] {
			rows = append(rows, i)
		}
	}
	m := len(universe)
	var gotSub, wantSub, gotCut CSR
	gotSub.Col, gotSub.Val = make([]int32, 1, 3), make([]float64, 1, 3) // reuse must not leak stale capacity
	op.ExtractRowsInto(rows, toLocal, m, &gotSub)
	want.ExtractRowsInto(rows, toLocal, m, &wantSub)
	if err := csrBitsEqual(&gotSub, &wantSub); err != nil {
		return fmt.Errorf("ExtractRowsInto: %w", err)
	}
	op.RowsInto(rows, toLocal, m, &gotCut)
	if gotCut.Rows != m || gotCut.Cols != n || gotCut.NNZ() != want.NNZRows(rows) || op.NNZRows(rows) != gotCut.NNZ() {
		return fmt.Errorf("RowsInto cut is %dx%d/%d", gotCut.Rows, gotCut.Cols, gotCut.NNZ())
	}
	for _, r := range rows {
		lr := int(toLocal[r])
		gc, gv := gotCut.RowIndices(lr), gotCut.RowValues(lr)
		wc, wv := want.RowIndices(r), want.RowValues(r)
		if len(gc) != len(wc) {
			return fmt.Errorf("RowsInto row %d: %d entries vs %d", r, len(gc), len(wc))
		}
		for k := range gc {
			if gc[k] != wc[k] || math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
				return fmt.Errorf("RowsInto row %d entry %d differs", r, k)
			}
		}
	}

	x := mat.Randn(n, 3, 1, pick)
	gotMul, wantMul := mat.New(len(rows), 3), mat.New(len(rows), 3)
	if gm, wm := op.MulDenseRowsCompact(rows, x, gotMul), MulRowsInto(want, rows, nil, want.Val, x.Data, 3, 1, wantMul.Data); gm != wm {
		return fmt.Errorf("MulDenseRowsCompact counts %d MACs vs %d", gm, wm)
	}
	for i, v := range wantMul.Data {
		if math.Float64bits(gotMul.Data[i]) != math.Float64bits(v) {
			return fmt.Errorf("MulDenseRowsCompact element %d: %v vs %v", i, gotMul.Data[i], v)
		}
	}

	// The operator product against the cut-then-multiply it replaced, at
	// every tier: columns global (the cut is RowsInto's, x the n×f operand,
	// output compact) and through the column map (the cut is ExtractRowsInto's,
	// x lives on the universe, output scattered to local rows).
	local := make([]int, len(rows))
	for k, r := range rows {
		local[k] = int(toLocal[r])
	}
	xLocal := mat.Randn(m, 3, 1, pick)
	if err := checkOperatorProduct(op, "global columns", &gotCut, rows, local, nil, x.Data, 3); err != nil {
		return err
	}
	if err := checkOperatorProduct(op, "column map", &gotSub, rows, local, toLocal, xLocal.Data, 3); err != nil {
		return err
	}
	return checkSplitProduct(op, rows, local, toLocal, xLocal.Data, 3, pick)
}

// checkSplitProduct requires MulNormalizedRowsSplitInto over xLocal's rows
// split between two blocks — each universe row sent to the second one with
// probability ½, in pick's order, and reached there as −2−k — to equal, bit
// for bit at f64 and f32, MulNormalizedRowsInto through toLocal over xLocal.
func checkSplitProduct(op *Normalized, rows, local []int, toLocal []int32, xLocal []float64, f int, pick *rand.Rand) error {
	m := len(xLocal) / f
	moved := make([]int32, m) // universe row → its row in x, or −2−k for second's row k
	x, second := []float64{}, []float64{}
	for _, lr := range pick.Perm(m) {
		row := xLocal[lr*f : (lr+1)*f]
		if pick.Intn(2) == 0 {
			moved[lr], x = int32(len(x)/f), append(x, row...)
		} else {
			moved[lr], second = int32(-2-len(second)/f), append(second, row...)
		}
	}
	split := make([]int32, len(toLocal))
	for v, lr := range toLocal {
		split[v] = -1
		if lr >= 0 {
			split[v] = moved[lr]
		}
	}
	want64, got64 := make([]float64, m*f), make([]float64, m*f)
	MulNormalizedRowsInto(op, rows, local, toLocal, xLocal, nil, f, want64)
	MulNormalizedRowsSplitInto(op, rows, local, split, x, second, f, got64)
	for i, w := range want64 {
		if math.Float64bits(got64[i]) != math.Float64bits(w) {
			return fmt.Errorf("split operand, f64: element %d is %v, one block %v", i, got64[i], w)
		}
	}
	want32, got32 := make([]float32, m*f), make([]float32, m*f)
	MulNormalizedRowsInto(op, rows, local, toLocal, to32(xLocal), nil, f, want32)
	MulNormalizedRowsSplitInto(op, rows, local, split, to32(x), to32(second), f, got32)
	for i, w := range want32 {
		if math.Float32bits(got32[i]) != math.Float32bits(w) {
			return fmt.Errorf("split operand, f32: element %d is %v, one block %v", i, got32[i], w)
		}
	}
	return nil
}

// checkOperatorProduct requires MulNormalizedRowsInto over rows to equal, bit
// for bit at f64 and f32, MulRowsInto over cut — those rows of op cut into a
// CSR at local rows, columns global (colMap nil) or mapped — with the cut's
// values lowered as the engine's tiers lower them, and over int8 rows with one
// scale each, the naive reference over cut (refMulRowsQ).
func checkOperatorProduct(op *Normalized, label string, cut *CSR, rows, local []int, colMap []int32, x []float64, f int) error {
	outRows := local
	if colMap == nil {
		outRows = nil // compact: row k of the output is rows[k]
	}
	height := cut.Rows
	if outRows == nil {
		height = len(rows)
	}
	same := func(tier string, got, want []float64) error {
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("operator product, %s, %s: element %d is %v, cut-then-multiply %v", label, tier, i, got[i], want[i])
			}
		}
		return nil
	}
	widen := func(v []float32) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = float64(v[i])
		}
		return out
	}

	got64, want64 := make([]float64, height*f), make([]float64, height*f)
	gm := MulNormalizedRowsInto(op, rows, outRows, colMap, x, nil, f, got64)
	wm := MulRowsInto(cut, local, outRows, cut.Val, x, f, 1, want64)
	if gm != wm || gm != op.NNZRows(rows)*f {
		return fmt.Errorf("operator product, %s: %d MACs, cut-then-multiply %d", label, gm, wm)
	}
	if err := same("f64", got64, want64); err != nil {
		return err
	}

	av, x32 := make([]float32, len(cut.Val)), make([]float32, len(x))
	kernel.ToF32(av, cut.Val)
	kernel.ToF32(x32, x)
	got32, want32 := make([]float32, height*f), make([]float32, height*f)
	MulNormalizedRowsInto(op, rows, outRows, colMap, x32, nil, f, got32)
	MulRowsInto(cut, local, outRows, av, x32, f, 1, want32)
	if err := same("f32", widen(got32), widen(want32)); err != nil {
		return err
	}

	xq, sq := quantizeRows(x, f)
	got8, want8 := make([]float32, height*f), make([]float32, height*f)
	MulNormalizedRowsInto(op, rows, outRows, colMap, xq, sq, f, got8)
	for k, v := range refMulRowsQ(cut, local, xq, sq, f) {
		want8[rowAt(outRows, k/f)*f+k%f] = v
	}
	return same("int8 rows", widen(got8), widen(want8))
}

// growth is one delta of a sequence: grow appended nodes, then edges over
// the grown id range.
type growth struct {
	grow     int
	src, dst []int
}

// checkNormalizedGrowth builds the operator on base, patches every delta in
// with the value-dirty rows a deployment names (dirty rows and their
// neighbors), and compares against a fresh materialization at every stage.
func checkNormalizedGrowth(base *CSR, gamma float64, deltas []growth, pick *rand.Rand) error {
	adj := base
	op := NewNormalized(adj, gamma)
	if err := checkNormalized(op, NormalizedAdjacency(adj, gamma), pick); err != nil {
		return fmt.Errorf("base: %w", err)
	}
	for step, d := range deltas {
		n := adj.Rows + d.grow
		merged, dirty := adj.AppendEdges(n, d.src, d.dst)
		mark := make([]bool, n)
		for _, v := range dirty {
			mark[v] = true
		}
		for v := adj.Rows; v < n; v++ {
			mark[v] = true // appended nodes are dirty even without edges
		}
		valMark := append([]bool(nil), mark...)
		for v := range mark {
			if mark[v] {
				for _, u := range merged.RowIndices(v) {
					valMark[u] = true
				}
			}
		}
		var valDirty []int
		for v, on := range valMark {
			if on {
				valDirty = append(valDirty, v)
			}
		}
		adj = merged
		op.Patch(adj, valDirty)
		if err := checkNormalized(op, NormalizedAdjacency(adj, gamma), pick); err != nil {
			return fmt.Errorf("after delta %d: %w", step, err)
		}
	}
	return nil
}

func TestNormalizedMatchesMaterializedAcrossDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		base := randomDeltaAdj(n, 0.15, rng)
		var deltas []growth
		for s, at := 0, n; s < 1+rng.Intn(4); s++ {
			d := growth{grow: rng.Intn(4)}
			at += d.grow
			for e := 0; e < rng.Intn(7); e++ {
				d.src, d.dst = append(d.src, rng.Intn(at)), append(d.dst, rng.Intn(at))
			}
			deltas = append(deltas, d)
		}
		for _, gamma := range []float64{GammaRowStochastic, GammaSymmetric, GammaColStochastic} {
			if err := checkNormalizedGrowth(base, gamma, deltas, rng); err != nil {
				t.Fatalf("trial %d gamma %v: %v", trial, gamma, err)
			}
		}
	}
}

// TestNormalizedHubRows runs the contract on a graph whose rows outgrow the
// buffer an operator product's worker keeps in its frame (rowBufLen), with
// enough work to fan the product out across workers.
func TestNormalizedHubRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	adj := randomDeltaAdj(300, 0.5, rng)
	long := 0
	for i := 0; i < adj.Rows; i++ {
		if adj.RowNNZ(i) > rowBufLen {
			long++
		}
	}
	if long < adj.Rows/2 {
		t.Fatalf("only %d of %d rows outgrow the %d-entry worker buffer", long, adj.Rows, rowBufLen)
	}
	for _, gamma := range []float64{GammaRowStochastic, GammaSymmetric} {
		op := NewNormalized(adj, gamma)
		if err := checkNormalized(op, NormalizedAdjacency(adj, gamma), rng); err != nil {
			t.Fatalf("gamma %v: %v", gamma, err)
		}
	}
}

// TestNormalizedLongRowsAllocateNoMore: a worker gathers a row longer than
// its frame (rowBufLen) piece by piece in that frame, so an operator product
// over such rows allocates no more than one over rows that fit — on one
// processor, where it runs inline, and on two, where it fans out in chunks.
func TestNormalizedLongRowsAllocateNoMore(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const f = 16
	product := func(adj *CSR) func() {
		op := NewNormalized(adj, GammaSymmetric)
		rows := identityRows(adj.Rows)
		x, out := mat.Randn(adj.Rows, f, 1, rng).Data, make([]float64, adj.Rows*f)
		return func() { MulNormalizedRowsInto(op, rows, nil, nil, x, nil, f, out) }
	}
	short, long := randomDeltaAdj(2000, 0.004, rng), randomDeltaAdj(300, 0.5, rng)
	if short.NNZRows(identityRows(short.Rows))*f < par.Threshold || slices.Max(short.Degrees()) >= rowBufLen || slices.Min(long.Degrees()) < rowBufLen {
		t.Fatal("the two graphs do not straddle the frame with enough work to fan out")
	}
	for _, procs := range []int{1, 2} {
		fit, over := allocsAt(procs, product(short)), allocsAt(procs, product(long))
		if over > fit {
			t.Errorf("GOMAXPROCS %d: %d allocations a product over long rows, %d over rows that fit", procs, over, fit)
		}
	}
}

// allocsAt is testing.AllocsPerRun at GOMAXPROCS procs (AllocsPerRun itself
// runs at 1): the mean heap allocation count of 20 calls of fn, after one
// to warm up.
func allocsAt(procs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const runs = 20
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs
}

// TestNormalizedPatchRecomputesOnlyDirtyFactors: a patch is O(|dirty|) — a
// poisoned factor of a clean row survives it, a dirty row's does not, and the
// appended rows get theirs. At γ = 0.3 the two factors are poisoned
// independently; at γ = ½ they are one slice, so one poison lands in both.
func TestNormalizedPatchRecomputesOnlyDirtyFactors(t *testing.T) {
	const poison, other = 123.456, 654.321
	for _, tc := range []struct {
		name   string
		gamma  float64
		poison func(op *Normalized) // a clean row 1 and a dirty row 3
	}{
		{"separate", 0.3, func(op *Normalized) { op.Left[1], op.Right[3], op.Right[1], op.Left[3] = poison, poison, other, other }},
		{"shared", GammaSymmetric, func(op *Normalized) { op.Left[1], op.Left[3] = poison, poison }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := FromEdges(6, []int{0, 1, 3}, []int{1, 2, 4}, true)
			op := NewNormalized(base, tc.gamma)
			merged, dirty := base.AppendEdges(7, []int{3}, []int{6})
			if fmt.Sprint(dirty) != "[3 6]" {
				t.Fatalf("dirty rows %v", dirty)
			}
			tc.poison(op)
			wantL1, wantR1 := op.Left[1], op.Right[1]
			op.Patch(merged, []int{3, 4, 6}) // 4 neighbors 3: value-dirty, factors unmoved
			fresh := NewNormalized(merged, tc.gamma)
			if op.Adj != merged || op.N() != 7 {
				t.Fatal("patch did not rebind to the grown graph")
			}
			for i := range fresh.Left {
				wantL, wantR := fresh.Left[i], fresh.Right[i]
				if i == 1 {
					wantL, wantR = wantL1, wantR1
				}
				if op.Left[i] != wantL || op.Right[i] != wantR {
					t.Fatalf("row %d factors (%v, %v), want (%v, %v)", i, op.Left[i], op.Right[i], wantL, wantR)
				}
			}
		})
	}
}

// TestNormalizedSharedFactors: at γ = ½ the factors d̃^{γ−1} and d̃^{−γ} are
// the same bits, so Left and Right are one backing array — after NewNormalized
// and after a Patch that appends rows — and every row emitted still carries
// NormalizedAdjacency's bits. At γ ∈ {0, 0.3, 1} the two stay
// separate slices.
func TestNormalizedSharedFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := randomDeltaAdj(30, 0.2, rng)
	for _, gamma := range []float64{GammaRowStochastic, 0.3, GammaSymmetric, GammaColStochastic} {
		op := NewNormalized(base, gamma)
		adj := base
		for stage := 0; stage < 3; stage++ {
			shared := len(op.Left) == len(op.Right) && unsafe.SliceData(op.Left) == unsafe.SliceData(op.Right)
			if want := gamma == GammaSymmetric; shared != want {
				t.Fatalf("gamma %v stage %d: Left and Right shared %v, want %v", gamma, stage, shared, want)
			}
			if err := checkNormalized(op, NormalizedAdjacency(adj, gamma), rng); err != nil {
				t.Fatalf("gamma %v stage %d: %v", gamma, stage, err)
			}
			// Grow by 3 rows, two joined to the graph. The first Patch's
			// append outgrows the factors' capacity: appending Left and Right
			// separately would reallocate them apart.
			n := adj.Rows + 3
			merged, _ := adj.AppendEdges(n, []int{n - 1, n - 2}, []int{0, n - 3})
			dirty := make([]int, n)
			for i := range dirty {
				dirty[i] = i
			}
			adj = merged
			op.Patch(adj, dirty)
		}
	}
}

func TestNormalizedRejectsBadInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	adj := FromEdges(3, []int{0}, []int{1}, true)
	mustPanic("gamma 2", func() { NewNormalized(adj, 2) })
	mustPanic("not square", func() { NewNormalized(fromAdjLists(2, 3, [][]int32{{1}, {2}}), 0.5) })
	looped := fromAdjLists(2, 2, [][]int32{{0, 1}, {0}})
	mustPanic("stored diagonal", func() {
		var out CSR
		NewNormalized(looped, 0.5).RowsInto([]int{0}, nil, 1, &out)
	})
	grown, _ := adj.AppendEdges(5, nil, nil)
	mustPanic("appended row not dirty", func() {
		NewNormalized(adj, 0.5).Patch(grown, []int{4})
	})
	mustPanic("neighbor outside the universe", func() {
		var out CSR
		NewNormalized(adj, 0.5).ExtractRowsInto([]int{0}, []int32{0, -1, -1}, 1, &out)
	})
	// Whichever entry point emitted the row, the message names the operator,
	// the row and the unmapped column.
	defer func() {
		if msg := fmt.Sprint(recover()); msg != "sparse: Normalized row 0 has column 1 outside the column map" {
			t.Fatalf("MulNormalizedRowsInto over a short column map panicked with %q", msg)
		}
	}()
	MulNormalizedRowsInto(NewNormalized(adj, 0.5), []int{0}, nil, []int32{0, -1, -1}, []float64{1}, nil, 1, make([]float64, 1))
}

// FuzzNormalizedRows drives the operator-vs-materialized property over
// fuzzer-chosen graphs (up to 256 nodes and 255 edges, so one row can span
// three of a worker's pieces), γ and growth sequences.
func FuzzNormalizedRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{5, 1, 4, 0, 1, 1, 2, 2, 3, 3, 4, 2, 1, 2, 0, 5, 5, 6})
	f.Add([]byte{12, 2, 20, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 7, 8, 9, 10, 11, 0, 3, 3, 3, 12, 0, 13, 0, 14, 1, 0, 1, 200, 7})
	f.Add([]byte{30, 0, 60, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 0, 2, 0, 4, 1, 1, 255})
	// Every input's column-map product is also run over its operand split
	// between two blocks (checkSplitProduct); here a 20-node star around a
	// ring, grown by two nodes joined to it, whose hub row gathers every node,
	// some from each block.
	star := []byte{19, 1, 38}
	for v := byte(1); v < 20; v++ {
		star = append(star, 0, v, v, v%19+1)
	}
	f.Add(append(star, 1, 2, 3, 20, 0, 21, 7, 20, 21))
	// A 201-node star around node 100, grown by two nodes joined to it: the
	// hub's row, 203 entries, is gathered in three pieces (rowBufLen each at
	// most), its diagonal in the second.
	hub := []byte{200, 1, 200}
	for v := byte(0); v <= 200; v++ {
		if v != 100 {
			hub = append(hub, 100, v)
		}
	}
	f.Add(append(hub, 1, 2, 2, 201, 100, 202, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()
		gamma := []float64{GammaRowStochastic, GammaSymmetric, GammaColStochastic}[next()%3]
		var src, dst []int
		for e := next(); e > 0; e-- {
			src, dst = append(src, next()%n), append(dst, next()%n)
		}
		base := FromEdges(n, src, dst, true)
		var deltas []growth
		for s, at := next()%4, n; s > 0; s-- {
			d := growth{grow: next() % 4}
			at += d.grow
			for e := next() % 8; e > 0; e-- {
				d.src, d.dst = append(d.src, next()%at), append(d.dst, next()%at)
			}
			deltas = append(deltas, d)
		}
		if err := checkNormalizedGrowth(base, gamma, deltas, rand.New(rand.NewSource(int64(len(src))))); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkNormalizedExtract times a whole-graph cut of the operator (a deep
// batch's sub-CSR) beside the copy it replaced, CSR.ExtractRowsInto on the
// materialized matrix.
func BenchmarkNormalizedExtract(b *testing.B) {
	const n, deg = 50000, 24
	rng := rand.New(rand.NewSource(1))
	src, dst := make([]int, n*deg/2), make([]int, n*deg/2)
	for e := range src {
		src[e], dst[e] = rng.Intn(n), rng.Intn(n)
	}
	adj := FromEdges(n, src, dst, true)
	op := NewNormalized(adj, GammaSymmetric)
	full := NormalizedAdjacency(adj, GammaSymmetric)
	rows, toLocal := make([]int, n), make([]int32, n)
	for i := range rows {
		rows[i], toLocal[i] = i, int32(i)
	}
	var out CSR
	b.Run("operator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op.ExtractRowsInto(rows, toLocal, n, &out)
		}
	})
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			full.ExtractRowsInto(rows, toLocal, n, &out)
		}
	})
}
