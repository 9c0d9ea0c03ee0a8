package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// Property/metamorphic suite for the propagation kernels: the one row driver
// per accumulator type (mulRowsFloat, mulRowsInt) and the entry points over
// it, pinned against naive row-serial references written here — a plain loop
// at f64 and at f32, exact int32 accumulation then one dequantize at int8 —
// never against the driver itself. The invariants:
//
//   - at f64 and f32 the driver is bit-identical to the reference at its tier,
//     rows wider than any cache included (TestKernelPropWideRows), and f32
//     stays within the analytic forward-error bound of f64;
//   - at int8 it is bit-identical to the reference, and within the analytic
//     quantization bound of the f64 reference;
//   - the operator's rows feed the same driver with the same result as the
//     stored matrix's (TestKernelPropOperatorRows), also when a row is
//     gathered in pieces (TestKernelPropPieceEdges);
//   - compact and scatter forms agree row-for-row, and a sub-CSR cut with
//     ExtractRowsInto, carrying the selected rows' entries of the tier's
//     global lowering, reproduces the global rows bitwise within each tier.
//
// CI runs this file under -race (kernel chunks must never overlap).

type kernelCase struct {
	name string
	a    *CSR
	x    *mat.Matrix
	rows []int
}

// valuedCSR builds a rows×cols CSR with values from per-row column lists and
// parallel value lists, sorting each row by column and keeping one entry of
// each duplicated column: the zoo's matrices, which unlike an adjacency carry
// real values.
func valuedCSR(rows, cols int, adj [][]int, vals [][]float64) *CSR {
	out := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1), Val: []float64{}}
	for i, list := range adj {
		order := make([]int, len(list))
		for k := range order {
			order[k] = k
		}
		sort.SliceStable(order, func(x, y int) bool { return list[order[x]] < list[order[y]] })
		for k, o := range order {
			if k > 0 && list[o] == list[order[k-1]] {
				continue
			}
			out.Col = append(out.Col, int32(list[o]))
			out.Val = append(out.Val, vals[i][o])
		}
		out.RowPtr[i+1] = len(out.Col)
	}
	return out
}

// propCases builds the seeded CSR zoo: generic sparsity, empty rows, a
// single-column matrix, single-feature dense operand, dense stripes (rows
// with every column set — the hub-row worst case), and a ladder of rows with
// 0..13 entries for the gather's groups of four.
func propCases(rng *rand.Rand) []kernelCase {
	var cases []kernelCase
	add := func(name string, rows, cols, f int, density float64, mutate func(adj [][]int)) {
		adj := make([][]int, rows)
		for i := range adj {
			for c := 0; c < cols; c++ {
				if rng.Float64() < density {
					adj[i] = append(adj[i], c)
				}
			}
		}
		if mutate != nil {
			mutate(adj)
		}
		vals := make([][]float64, rows)
		for i := range adj {
			vals[i] = make([]float64, len(adj[i]))
			for k := range vals[i] {
				vals[i][k] = rng.NormFloat64()
			}
		}
		a := valuedCSR(rows, cols, adj, vals)
		x := mat.Randn(cols, f, 1.3, rng)
		sel := make([]int, 0, rows)
		for r := 0; r < rows; r++ {
			if rng.Intn(3) != 0 {
				sel = append(sel, r)
			}
		}
		if len(sel) == 0 {
			sel = []int{0}
		}
		cases = append(cases, kernelCase{name: name, a: a, x: x, rows: sel})
	}
	add("generic", 37, 41, 19, 0.15, nil)
	add("empty-rows", 30, 23, 7, 0.2, func(adj [][]int) {
		for i := 0; i < len(adj); i += 2 {
			adj[i] = nil
		}
	})
	add("single-column", 25, 1, 9, 0.6, nil)
	add("single-feature", 21, 18, 1, 0.25, nil)
	add("dense-stripes", 24, 31, 13, 0.08, func(adj [][]int) {
		for _, i := range []int{0, 7, 23} {
			adj[i] = adj[i][:0]
			for c := 0; c < 31; c++ {
				adj[i] = append(adj[i], c)
			}
		}
	})
	// The gather takes neighbors four at a time: cover every remainder
	// (nnz mod 4 ∈ {0,1,2,3}), rows shorter than one group (nnz < 4, the
	// empty row included) and a feature width that is no multiple of four.
	add("nnz-ladder", 14, 17, 23, 0, func(adj [][]int) {
		for i := range adj {
			for _, c := range rng.Perm(17)[:i] {
				adj[i] = append(adj[i], c)
			}
		}
	})
	ladder := &cases[len(cases)-1]
	ladder.rows = identityRows(ladder.a.Rows)
	for i := 0; i < ladder.a.Rows; i++ {
		if ladder.a.RowNNZ(i) != i {
			panic("nnz-ladder: row nnz")
		}
	}
	return cases
}

// refMulRows is the row-serial f64 reference: neighbors outer, features
// inner, one term at a time, written independently of the production code.
func refMulRows(a *CSR, rows []int, x *mat.Matrix) *mat.Matrix {
	out := mat.New(len(rows), x.Cols)
	for k, r := range rows {
		dst := out.Row(k)
		cols := a.RowIndices(r)
		vals := a.RowValues(r)
		for p, c := range cols {
			v := vals[p]
			for j := 0; j < x.Cols; j++ {
				dst[j] += v * x.At(int(c), j)
			}
		}
	}
	return out
}

// refMulRows32 is refMulRows at float32: av aligns with a.Val.
func refMulRows32(a *CSR, rows []int, av, x32 []float32, f int) []float32 {
	out := make([]float32, len(rows)*f)
	for k, r := range rows {
		dst := out[k*f : k*f+f]
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			v := av[p]
			for j := range dst {
				dst[j] += v * x32[int(a.Col[p])*f+j]
			}
		}
	}
	return out
}

// refMulRows8 is the int8 reference: each row accumulated exactly in int32
// (aq aligns with a.Val), then every element dequantized once by deq.
func refMulRows8(a *CSR, rows []int, aq, xq []int8, f int, deq float64) []float32 {
	out := make([]float32, len(rows)*f)
	acc := make([]int32, f)
	for k, r := range rows {
		clear(acc)
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			for j := range acc {
				acc[j] += int32(aq[p]) * int32(xq[int(a.Col[p])*f+j])
			}
		}
		for j, v := range acc {
			out[k*f+j] = float32(float64(v) * deq)
		}
	}
	return out
}

// quantizeRows quantizes x (rows of f) row by row, each row at its own
// symmetric scale: the int8 tier's features.
func quantizeRows(x []float64, f int) ([]int8, []float64) {
	q, scales := make([]int8, len(x)), make([]float64, len(x)/f)
	for i := range scales {
		scales[i] = kernel.QuantizeInto(q[i*f:][:f], x[i*f:][:f])
	}
	return q, scales
}

// refMulRowsQ is the int8-rows reference: row k of the output adds, at
// float32 in ascending column order, float32(a's value · scales[c]) ·
// float32(xq's row c) over the entries (c, value) of a's row rows[k].
func refMulRowsQ(a *CSR, rows []int, xq []int8, scales []float64, f int) []float32 {
	out := make([]float32, len(rows)*f)
	for k, r := range rows {
		dst := out[k*f : k*f+f]
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			c := int(a.Col[p])
			v := float32(a.Val[p] * scales[c])
			for j := range dst {
				dst[j] += v * float32(xq[c*f+j])
			}
		}
	}
	return out
}

// csrRows is the row source MulRowsInto hands the drivers.
func csrRows[V float64 | float32 | int8](a *CSR, rows []int, vals []V) rowSource[V] {
	return rowSource[V]{rows: rows, csr: a, vals: vals}
}

// sameBits32 reports the first element where got and want differ in bits.
func sameBits32(got, want []float32) (int, bool) {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i, false
		}
	}
	return -1, true
}

func TestKernelPropTiledF64BitIdentical(t *testing.T) {
	for _, tc := range propCases(rand.New(rand.NewSource(11))) {
		t.Run(tc.name, func(t *testing.T) {
			ref := refMulRows(tc.a, tc.rows, tc.x)
			for _, driver := range []bool{false, true} {
				compact := mat.New(len(tc.rows), tc.x.Cols)
				scatter := mat.New(tc.a.Rows, tc.x.Cols)
				if !driver {
					MulRowsInto(tc.a, tc.rows, nil, tc.a.Val, tc.x.Data, tc.x.Cols, 1, compact.Data)
					tc.a.MulDenseRows(tc.rows, tc.x, scatter)
				} else {
					src := csrRows(tc.a, tc.rows, tc.a.Val)
					mulRowsFloat(src, identityRows(len(tc.rows)), tc.x.Data, nil, tc.x.Cols, compact.Data)
					mulRowsFloat(src, tc.rows, tc.x.Data, nil, tc.x.Cols, scatter.Data)
				}
				for k, r := range tc.rows {
					for j := 0; j < tc.x.Cols; j++ {
						want := ref.At(k, j)
						if got := compact.At(k, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("driver=%v compact[%d,%d] = %v, row-serial %v", driver, k, j, got, want)
						}
						if got := scatter.At(r, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("driver=%v scatter[%d,%d] = %v, row-serial %v", driver, r, j, got, want)
						}
					}
				}
			}
		})
	}
}

// lower32 builds the f32 operands of a case.
func lower32(a *CSR, x *mat.Matrix) (av, x32 []float32) {
	av = make([]float32, a.NNZ())
	kernel.ToF32(av, a.Val)
	x32 = make([]float32, len(x.Data))
	kernel.ToF32(x32, x.Data)
	return av, x32
}

// f32Bound is the analytic per-element forward-error bound for the f32
// kernel: inputs are lowered with one rounding each (relative u = 2⁻²⁴),
// every product adds one rounding, and summing n terms adds at most n
// roundings, so |err| ≤ (n+4)·2⁻²⁴·Σ|aₖxₖ| to first order; the 1.01 factor
// absorbs the higher-order γₙ terms at these tiny n.
func f32Bound(a *CSR, r int, x *mat.Matrix, j int) float64 {
	cols := a.RowIndices(r)
	vals := a.RowValues(r)
	s := 0.0
	for p, c := range cols {
		s += math.Abs(vals[p] * x.At(int(c), j))
	}
	n := float64(len(cols))
	return (n+4)*s*1.01/(1<<24) + 1e-30
}

func TestKernelPropF32WithinTolerance(t *testing.T) {
	for _, tc := range propCases(rand.New(rand.NewSource(12))) {
		t.Run(tc.name, func(t *testing.T) {
			ref := refMulRows(tc.a, tc.rows, tc.x)
			av, x32 := lower32(tc.a, tc.x)
			f := tc.x.Cols
			base := make([]float32, len(tc.rows)*f)
			MulRowsInto(tc.a, tc.rows, identityRows(len(tc.rows)), av, x32, f, 1, base)
			ref32 := refMulRows32(tc.a, tc.rows, av, x32, f)
			if i, ok := sameBits32(base, ref32); !ok {
				t.Fatalf("f32 element %d = %v, row-serial f32 %v", i, base[i], ref32[i])
			}
			for k := range tc.rows {
				for j := 0; j < f; j++ {
					got := float64(base[k*f+j])
					want := ref.At(k, j)
					if err := math.Abs(got - want); err > f32Bound(tc.a, tc.rows[k], tc.x, j) {
						t.Fatalf("f32[%d,%d] = %v, f64 %v, err %v beyond bound", k, j, got, want, err)
					}
				}
			}
			src := csrRows(tc.a, tc.rows, av)
			blk := make([]float32, len(tc.rows)*f)
			mulRowsFloat(src, identityRows(len(tc.rows)), x32, nil, f, blk)
			if i, ok := sameBits32(blk, ref32); !ok {
				t.Fatalf("driver f32 element %d = %v, row-serial f32 %v", i, blk[i], ref32[i])
			}
			scat := make([]float32, tc.a.Rows*f)
			mulRowsFloat(src, tc.rows, x32, nil, f, scat)
			for k, r := range tc.rows {
				if i, ok := sameBits32(scat[r*f:r*f+f], ref32[k*f:k*f+f]); !ok {
					t.Fatalf("driver f32 scatter row %d col %d drifts from row-serial", r, i)
				}
			}
		})
	}
}

// int8Bound is the analytic per-element bound for the int8 kernel: with
// adjacency scale sa and activation scale sx, each operand is within half a
// step of its quantization (|a−sa·qa| ≤ sa/2 for |a| ≤ 127·sa), so each
// product errs by at most |a|·sx/2 + |x|·sa/2 + sa·sx/4; accumulation is
// exact in int32 and the final f32 store adds one rounding of the result.
func int8Bound(a *CSR, r int, x *mat.Matrix, j int, sa, sx, ref float64) float64 {
	cols := a.RowIndices(r)
	vals := a.RowValues(r)
	b := 0.0
	for p, c := range cols {
		b += math.Abs(vals[p])*sx/2 + math.Abs(x.At(int(c), j))*sa/2 + sa*sx/4
	}
	return b + math.Abs(ref)/(1<<23) + 1e-30
}

func TestKernelPropInt8WithinTolerance(t *testing.T) {
	for _, tc := range propCases(rand.New(rand.NewSource(13))) {
		t.Run(tc.name, func(t *testing.T) {
			ref := refMulRows(tc.a, tc.rows, tc.x)
			aq, sa := kernel.Quantize(tc.a.Val)
			xq, sx := kernel.Quantize(tc.x.Data)
			deq := sa * sx
			f := tc.x.Cols
			base := make([]float32, len(tc.rows)*f)
			MulRowsInto(tc.a, tc.rows, identityRows(len(tc.rows)), aq, xq, f, deq, base)
			ref8 := refMulRows8(tc.a, tc.rows, aq, xq, f, deq)
			if i, ok := sameBits32(base, ref8); !ok {
				t.Fatalf("int8 element %d = %v, row-serial int32 %v", i, base[i], ref8[i])
			}
			for k := range tc.rows {
				for j := 0; j < f; j++ {
					got := float64(base[k*f+j])
					want := ref.At(k, j)
					bound := int8Bound(tc.a, tc.rows[k], tc.x, j, sa, sx, want)
					if err := math.Abs(got - want); err > bound {
						t.Fatalf("int8[%d,%d] = %v, f64 %v, err %v beyond bound %v", k, j, got, want, err, bound)
					}
				}
			}
			src := csrRows(tc.a, tc.rows, aq)
			blk := make([]float32, len(tc.rows)*f)
			mulRowsInt(src, identityRows(len(tc.rows)), xq, f, deq, blk)
			if i, ok := sameBits32(blk, ref8); !ok {
				t.Fatalf("driver int8 element %d = %v, row-serial int32 %v", i, blk[i], ref8[i])
			}
			scat := make([]float32, tc.a.Rows*f)
			mulRowsInt(src, tc.rows, xq, f, deq, scat)
			for k, r := range tc.rows {
				if i, ok := sameBits32(scat[r*f:r*f+f], ref8[k*f:k*f+f]); !ok {
					t.Fatalf("driver int8 scatter row %d col %d drifts from row-serial", r, i)
				}
			}
		})
	}
}

// gatherRowVals returns the vals entries (aligned with a.Val) of the given
// rows in concatenated row order — the value layout ExtractRowsInto gives the
// sub-CSR it cuts, which is how the engine hands a sub-matrix its tier's
// global lowering.
func gatherRowVals[T any](a *CSR, rows []int, vals []T) []T {
	var out []T
	for _, r := range rows {
		out = append(out, vals[a.RowPtr[r]:a.RowPtr[r+1]]...)
	}
	return out
}

// TestKernelPropRemappedCompact pins the remapped compact form the engine's
// deep hops run on: a neighbor-closed universe is cut with ExtractRowsInto,
// the tier value arrays are gathered in the same row order, and the sub-CSR
// products must reproduce the corresponding global rows bitwise within each
// tier (f64 exactly; f32 and int8 bit-identical to their own global-kernel
// rows — the gathered values carry the global scales).
func TestKernelPropRemappedCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n, f := 40, 11
	var src, dst []int
	for i := 0; i < 160; i++ {
		src = append(src, rng.Intn(n))
		dst = append(dst, rng.Intn(n))
	}
	adj := FromEdges(n, src, dst, true)
	// Random values on the edges (FromEdges stores a pattern).
	adj.Val = make([]float64, adj.NNZ())
	for i := range adj.Val {
		adj.Val[i] = rng.NormFloat64()
	}
	x := mat.Randn(n, f, 1, rng)

	// rows: a random subset; universe: rows ∪ their neighbors (closed).
	inRows := make(map[int]bool)
	for len(inRows) < 12 {
		inRows[rng.Intn(n)] = true
	}
	inUniv := make(map[int]bool)
	var rows []int
	for r := range inRows {
		rows = append(rows, r)
		inUniv[r] = true
		for _, c := range adj.RowIndices(r) {
			inUniv[int(c)] = true
		}
	}
	sort.Ints(rows)
	var universe []int
	for v := range inUniv {
		universe = append(universe, v)
	}
	sort.Ints(universe)
	m := len(universe)
	toLocal := make([]int32, n)
	for i := range toLocal {
		toLocal[i] = -1
	}
	for lv, v := range universe {
		toLocal[v] = int32(lv)
	}

	var sub CSR
	adj.ExtractRowsInto(rows, toLocal, m, &sub)
	localRows := make([]int, len(rows))
	for i, r := range rows {
		localRows[i] = int(toLocal[r])
	}
	xLocal := x.GatherRows(universe)

	// f64: sub-CSR scatter over local rows == global compact, bitwise.
	wantC := mat.New(len(rows), f)
	MulRowsInto(adj, rows, nil, adj.Val, x.Data, f, 1, wantC.Data)
	gotS := mat.New(m, f)
	sub.MulDenseRows(localRows, xLocal, gotS)
	for k, lr := range localRows {
		for j := 0; j < f; j++ {
			if math.Float64bits(gotS.At(lr, j)) != math.Float64bits(wantC.At(k, j)) {
				t.Fatalf("f64 sub-CSR row %d drifts from global at col %d", lr, j)
			}
		}
	}

	// f32 tier through the gathered lowering.
	av, x32 := lower32(adj, x)
	want32 := make([]float32, len(rows)*f)
	MulRowsInto(adj, rows, identityRows(len(rows)), av, x32, f, 1, want32)
	subAv := gatherRowVals(adj, rows, av)
	if len(subAv) != sub.NNZ() {
		t.Fatalf("gathered %d f32 values for sub nnz %d", len(subAv), sub.NNZ())
	}
	xl32 := make([]float32, len(xLocal.Data))
	kernel.ToF32(xl32, xLocal.Data)
	got32 := make([]float32, m*f)
	sub.MulDenseRows32(localRows, subAv, xl32, f, got32)
	for k, lr := range localRows {
		for j := 0; j < f; j++ {
			if math.Float32bits(got32[lr*f+j]) != math.Float32bits(want32[k*f+j]) {
				t.Fatalf("f32 sub-CSR row %d drifts from global at col %d", lr, j)
			}
		}
	}

	// int8 tier: gathered global quantization, global scales.
	aq, sa := kernel.Quantize(adj.Val)
	xq, sx := kernel.Quantize(x.Data)
	deq := sa * sx
	want8 := make([]float32, len(rows)*f)
	MulRowsInto(adj, rows, identityRows(len(rows)), aq, xq, f, deq, want8)
	subAq := gatherRowVals(adj, rows, aq)
	// Local activations must be the same global quantization gathered by
	// universe row — re-quantizing locally would change the scale.
	xlq := make([]int8, m*f)
	for lv, v := range universe {
		copy(xlq[lv*f:(lv+1)*f], xq[v*f:(v+1)*f])
	}
	got8 := make([]float32, m*f)
	sub.MulDenseRows8(localRows, subAq, xlq, f, deq, got8)
	for k, lr := range localRows {
		for j := 0; j < f; j++ {
			if math.Float32bits(got8[lr*f+j]) != math.Float32bits(want8[k*f+j]) {
				t.Fatalf("int8 sub-CSR row %d drifts from global at col %d", lr, j)
			}
		}
	}
}

// TestMulRowsIntoRejectsMixedFloats: float operands accumulate at their own
// type, so an output of the other float type is a caller bug, not a cast.
func TestMulRowsIntoRejectsMixedFloats(t *testing.T) {
	a := FromEdges(2, []int{0}, []int{1}, true)
	defer func() {
		if recover() == nil {
			t.Fatal("float64 operands into a float32 output did not panic")
		}
	}()
	MulRowsInto(a, []int{0}, []int{0}, a.Val, make([]float64, 2), 1, 1, make([]float32, 2))
}

// identityRows returns 0..n−1, the explicit form of a nil output-row list.
func identityRows(n int) []int {
	idx := make([]int, n)
	for k := range idx {
		idx[k] = k
	}
	return idx
}

// TestKernelPropNilOutRowsIsCompact: a nil output-row list is the identity,
// bit for bit, at every element type, through the entry point and the drivers.
func TestKernelPropNilOutRowsIsCompact(t *testing.T) {
	for _, tc := range propCases(rand.New(rand.NewSource(17))) {
		t.Run(tc.name, func(t *testing.T) {
			f, n := tc.x.Cols, len(tc.rows)
			id := identityRows(n)
			av, x32 := lower32(tc.a, tc.x)
			aq, sa := kernel.Quantize(tc.a.Val)
			xq, sx := kernel.Quantize(tc.x.Data)
			for _, driver := range []bool{false, true} {
				nil64, id64 := make([]float64, n*f), make([]float64, n*f)
				nil32, id32 := make([]float32, n*f), make([]float32, n*f)
				nil8, id8 := make([]float32, n*f), make([]float32, n*f)
				var macs [6]int
				if !driver {
					macs[0] = MulRowsInto(tc.a, tc.rows, nil, tc.a.Val, tc.x.Data, f, 1, nil64)
					macs[1] = MulRowsInto(tc.a, tc.rows, id, tc.a.Val, tc.x.Data, f, 1, id64)
					macs[2] = MulRowsInto(tc.a, tc.rows, nil, av, x32, f, 1, nil32)
					macs[3] = MulRowsInto(tc.a, tc.rows, id, av, x32, f, 1, id32)
					macs[4] = MulRowsInto(tc.a, tc.rows, nil, aq, xq, f, sa*sx, nil8)
					macs[5] = MulRowsInto(tc.a, tc.rows, id, aq, xq, f, sa*sx, id8)
				} else {
					src64, src32, src8 := csrRows(tc.a, tc.rows, tc.a.Val), csrRows(tc.a, tc.rows, av), csrRows(tc.a, tc.rows, aq)
					macs[0] = mulRowsFloat(src64, nil, tc.x.Data, nil, f, nil64)
					macs[1] = mulRowsFloat(src64, id, tc.x.Data, nil, f, id64)
					macs[2] = mulRowsFloat(src32, nil, x32, nil, f, nil32)
					macs[3] = mulRowsFloat(src32, id, x32, nil, f, id32)
					macs[4] = mulRowsInt(src8, nil, xq, f, sa*sx, nil8)
					macs[5] = mulRowsInt(src8, id, xq, f, sa*sx, id8)
				}
				for i := range nil64 {
					if math.Float64bits(nil64[i]) != math.Float64bits(id64[i]) ||
						math.Float32bits(nil32[i]) != math.Float32bits(id32[i]) ||
						math.Float32bits(nil8[i]) != math.Float32bits(id8[i]) {
						t.Fatalf("driver=%v element %d: nil and identity output rows disagree", driver, i)
					}
				}
				for i, mc := range macs {
					if mc != macs[0] {
						t.Fatalf("driver=%v: MAC counts %v differ (call %d)", driver, macs, i)
					}
				}
			}
		})
	}
}

// TestKernelPropOperatorRows feeds the drivers the operator's rows — emitted
// at the tier's element type, or at int8 scaled by their columns' row scales
// and rounded to float32 over int8 rows — with hub rows longer than a
// worker's frame buffer, and pins every tier to its reference over the stored
// matrix.
func TestKernelPropOperatorRows(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	n, f := 120, 13
	var src, dst []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i == 0 || i == 7 || rng.Float64() < 0.05 {
				src, dst = append(src, i), append(dst, j)
			}
		}
	}
	adj := FromEdges(n, src, dst, true)
	x := mat.Randn(n, f, 1, rng)
	xq, sq := quantizeRows(x.Data, f)
	var rows []int
	for r := 0; r < n; r++ {
		if r%3 != 2 {
			rows = append(rows, r)
		}
	}
	for _, gamma := range []float64{GammaRowStochastic, GammaSymmetric, GammaColStochastic} {
		op := NewNormalized(adj, gamma)
		stored := NormalizedAdjacency(adj, gamma)
		if stored.RowNNZ(0) <= rowBufLen || stored.RowNNZ(7) <= rowBufLen {
			t.Fatalf("hub rows of %d and %d entries fit the %d-entry frame buffer", stored.RowNNZ(0), stored.RowNNZ(7), rowBufLen)
		}
		ref := refMulRows(stored, rows, x)
		av, x32 := lower32(stored, x)
		ref32 := refMulRows32(stored, rows, av, x32, f)
		ref8 := refMulRowsQ(stored, rows, xq, sq, f)
		got64 := make([]float64, len(rows)*f)
		got32, got8 := make([]float32, len(rows)*f), make([]float32, len(rows)*f)
		if m := mulRowsFloat(rowSource[float64]{rows: rows, op: op}, nil, x.Data, nil, f, got64); m != stored.NNZRows(rows)*f {
			t.Fatalf("gamma %v: %d MACs, stored rows hold %d", gamma, m, stored.NNZRows(rows)*f)
		}
		for i, want := range ref.Data {
			if math.Float64bits(got64[i]) != math.Float64bits(want) {
				t.Fatalf("gamma %v f64 element %d = %v, row-serial %v", gamma, i, got64[i], want)
			}
		}
		mulRowsFloat(rowSource[float32]{rows: rows, op: op}, nil, x32, nil, f, got32)
		if i, ok := sameBits32(got32, ref32); !ok {
			t.Fatalf("gamma %v f32 element %d = %v, row-serial %v", gamma, i, got32[i], ref32[i])
		}
		mulRowsFloat(rowSource[float32]{rows: rows, op: op, scales: sq}, nil, xq, nil, f, got8)
		if i, ok := sameBits32(got8, ref8); !ok {
			t.Fatalf("gamma %v int8 element %d = %v, row-serial %v", gamma, i, got8[i], ref8[i])
		}
	}
}

// TestKernelPropSplitOperand: a product whose column map sends some columns to
// a second operand — c ≤ −2 reads its row −2−c — is bit-equal, at f64 and f32,
// with hub rows longer than a worker's frame buffer,
// to the single-source product over x with the second operand's rows appended
// and those columns remapped past x's rows; through the driver and through
// MulNormalizedRowsSplitInto, with every row in x, every row in the second
// operand, and a random split of them, each block in shuffled order.
func TestKernelPropSplitOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n, f := 120, 13
	var src, dst []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i == 0 || i == 7 || rng.Float64() < 0.05 {
				src, dst = append(src, i), append(dst, j)
			}
		}
	}
	adj := FromEdges(n, src, dst, true)
	full := mat.Randn(n, f, 1, rng)
	var rows []int
	for r := 0; r < n; r++ {
		if r%3 != 1 {
			rows = append(rows, r)
		}
	}
	for _, share := range []float64{0, 1, 0.5} {
		// x holds the nodes that stay, second the rest, each in the order perm
		// meets them; split maps every node to its row, joined to its row of
		// x with second appended.
		split, joined := make([]int32, n), make([]int32, n)
		var inX, inSecond []int
		for _, v := range rng.Perm(n) {
			if rng.Float64() < share {
				split[v] = int32(-2 - len(inSecond))
				inSecond = append(inSecond, v)
			} else {
				split[v] = int32(len(inX))
				inX = append(inX, v)
			}
		}
		for v, c := range split {
			joined[v] = c
			if c < 0 {
				joined[v] = int32(len(inX)) - 2 - c
			}
		}
		x, second := full.GatherRows(inX).Data, full.GatherRows(inSecond).Data
		both := append(slices.Clone(x), second...)
		x32, second32, both32 := make([]float32, len(x)), make([]float32, len(second)), make([]float32, len(both))
		kernel.ToF32(x32, x)
		kernel.ToF32(second32, second)
		kernel.ToF32(both32, both)
		for _, gamma := range []float64{GammaRowStochastic, GammaSymmetric, GammaColStochastic} {
			op := NewNormalized(adj, gamma)
			label := fmt.Sprintf("share %v gamma %v", share, gamma)
			want64, got64 := make([]float64, len(rows)*f), make([]float64, len(rows)*f)
			wm := mulRowsFloat(rowSource[float64]{rows: rows, op: op, colMap: joined}, nil, both, nil, f, want64)
			gm := mulRowsFloat(rowSource[float64]{rows: rows, op: op, colMap: split}, nil, x, second, f, got64)
			if gm != wm {
				t.Fatalf("%s: %d MACs split, %d joined", label, gm, wm)
			}
			for i, w := range want64 {
				if math.Float64bits(got64[i]) != math.Float64bits(w) {
					t.Fatalf("%s f64 element %d = %v, joined %v", label, i, got64[i], w)
				}
			}
			want32, got32 := make([]float32, len(rows)*f), make([]float32, len(rows)*f)
			mulRowsFloat(rowSource[float32]{rows: rows, op: op, colMap: joined}, nil, both32, nil, f, want32)
			mulRowsFloat(rowSource[float32]{rows: rows, op: op, colMap: split}, nil, x32, second32, f, got32)
			if i, ok := sameBits32(got32, want32); !ok {
				t.Fatalf("%s f32 element %d = %v, joined %v", label, i, got32[i], want32[i])
			}
			want64, got64 = make([]float64, n*f), make([]float64, n*f)
			MulNormalizedRowsInto(op, rows, rows, joined, both, nil, f, want64)
			MulNormalizedRowsSplitInto(op, rows, rows, split, x, second, f, got64)
			for i, w := range want64 {
				if math.Float64bits(got64[i]) != math.Float64bits(w) {
					t.Fatalf("%s MulNormalizedRowsSplitInto element %d = %v, joined %v", label, i, got64[i], w)
				}
			}
		}
	}
}

// TestKernelPropPieceEdges pins operator rows that a worker gathers piece by
// piece — rowBufLen−1, rowBufLen, rowBufLen+1 and 2·rowBufLen+1 entries, the
// diagonal first, last, and just before, on and just after a piece edge — to
// RowsInto followed by MulRowsInto, bit for bit: at f64, at f32 and over int8
// rows with a scale each, with columns global and through a column map, and
// at f64 and f32 through a column map over an operand split in two blocks.
func TestKernelPropPieceEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, size := range []int{rowBufLen - 1, rowBufLen, rowBufLen + 1, 2*rowBufLen + 1} {
		selves := []int{0, size - 1}
		for _, edge := range []int{rowBufLen, 2 * rowBufLen} {
			for _, p := range []int{edge - 1, edge, edge + 1} {
				if p < size {
					selves = append(selves, p)
				}
			}
		}
		slices.Sort(selves)
		for _, self := range slices.Compact(selves) {
			// A star around node self, whose row of Â holds every node with
			// the diagonal at entry self, and chords among the leaves.
			var src, dst []int
			for v := 0; v < size; v++ {
				if v == self {
					continue
				}
				src, dst = append(src, self), append(dst, v)
				if u := rng.Intn(size); u != self && u != v {
					src, dst = append(src, u), append(dst, v)
				}
			}
			op := NewNormalized(FromEdges(size, src, dst, true), GammaSymmetric)
			if op.RowNNZ(self) != size {
				t.Fatalf("star row %d has %d entries, want %d", self, op.RowNNZ(self), size)
			}
			checkPieceEdges(t, fmt.Sprintf("row of %d entries, diagonal at %d", size, self), op, rng)
		}
	}
}

// checkPieceEdges runs every product of TestKernelPropPieceEdges over all of
// op's rows, against RowsInto's cut, itself pinned to the stored Â.
func checkPieceEdges(t *testing.T, label string, op *Normalized, rng *rand.Rand) {
	t.Helper()
	const f = 16
	n := op.N()
	rows := identityRows(n)
	var cut CSR
	op.RowsInto(rows, nil, n, &cut)
	if err := csrBitsEqual(&cut, NormalizedAdjacency(op.Adj, op.Gamma)); err != nil {
		t.Fatalf("%s: RowsInto against the stored Â: %v", label, err)
	}
	x := mat.Randn(n, f, 1, rng).Data
	// colMap sends node c to row colMap[c] of permuted; split sends it to x
	// or second, and joined to its row of x with second appended.
	colMap, split, joined := make([]int32, n), make([]int32, n), make([]int32, n)
	permuted := make([]float64, len(x))
	var x1, second []float64
	for c, p := range rng.Perm(n) {
		colMap[c] = int32(p)
		copy(permuted[p*f:][:f], x[c*f:][:f])
		if rng.Intn(2) == 0 {
			split[c], x1 = int32(len(x1)/f), append(x1, x[c*f:][:f]...)
		} else {
			split[c], second = int32(-2-len(second)/f), append(second, x[c*f:][:f]...)
		}
	}
	for c, s := range split {
		joined[c] = s
		if s < 0 {
			joined[c] = int32(len(x1)/f) - 2 - s
		}
	}
	same := func(tier string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s, %s: element %d = %v, cut-then-multiply %v", label, tier, i, got[i], want[i])
			}
		}
	}
	same32 := func(tier string, got, want []float32) {
		t.Helper()
		if i, ok := sameBits32(got, want); !ok {
			t.Fatalf("%s, %s: element %d = %v, cut-then-multiply %v", label, tier, i, got[i], want[i])
		}
	}
	for _, v := range []struct {
		name   string
		colMap []int32
		x      []float64
	}{{"global columns", nil, x}, {"column map", colMap, permuted}} {
		got64, got32, got8 := make([]float64, n*f), make([]float32, n*f), make([]float32, n*f)
		MulNormalizedRowsInto(op, rows, nil, v.colMap, v.x, nil, f, got64)
		same(v.name+" f64", got64, cutProduct(&cut, v.colMap, v.x, f, func(_ int32, a float64) float64 { return a }))
		x32 := to32(v.x)
		MulNormalizedRowsInto(op, rows, nil, v.colMap, x32, nil, f, got32)
		same32(v.name+" f32", got32, cutProduct(&cut, v.colMap, x32, f, func(_ int32, a float64) float32 { return float32(a) }))
		xq, sq := quantizeRows(v.x, f)
		xq32 := make([]float32, len(xq))
		for i, q := range xq {
			xq32[i] = float32(q)
		}
		MulNormalizedRowsInto(op, rows, nil, v.colMap, xq, sq, f, got8)
		same32(v.name+" int8 rows", got8, cutProduct(&cut, v.colMap, xq32, f, func(c int32, a float64) float32 { return float32(a * sq[c]) }))
	}
	both := append(slices.Clone(x1), second...)
	got64, got32 := make([]float64, n*f), make([]float32, n*f)
	MulNormalizedRowsSplitInto(op, rows, nil, split, x1, second, f, got64)
	same("split operand f64", got64, cutProduct(&cut, joined, both, f, func(_ int32, a float64) float64 { return a }))
	MulNormalizedRowsSplitInto(op, rows, nil, split, to32(x1), to32(second), f, got32)
	same32("split operand f32", got32, cutProduct(&cut, joined, to32(both), f, func(_ int32, a float64) float32 { return float32(a) }))
}

// cutProduct is MulRowsInto over a cut of Â's rows: its columns mapped
// through colMap when that is given, each value through val of the mapped
// column and the value, times x.
func cutProduct[V float64 | float32](cut *CSR, colMap []int32, x []V, f int, val func(c int32, a float64) V) []V {
	a := &CSR{Rows: cut.Rows, Cols: len(x) / f, RowPtr: cut.RowPtr, Col: make([]int32, len(cut.Col))}
	vals := make([]V, len(cut.Col))
	for i, c := range cut.Col {
		if colMap != nil {
			c = colMap[c]
		}
		a.Col[i], vals[i] = c, val(c, cut.Val[i])
	}
	out := make([]V, cut.Rows*f)
	MulRowsInto(a, identityRows(cut.Rows), nil, vals, x, f, 1, out)
	return out
}

// to32 rounds v to float32, each element once.
func to32(v []float64) []float32 {
	out := make([]float32, len(v))
	kernel.ToF32(out, v)
	return out
}

// TestKernelPropWideRows pins rows of more than 16 KiB, wider than an L1
// cache — 2 049 columns at f64, 4 100 at f32 and 16 400 at int8 — to the
// row-serial references, through MulRowsInto over a stored matrix, and at f64
// and f32 through MulNormalizedRowsInto over the operator against the same
// product over the stored Â.
func TestKernelPropWideRows(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n := 24
	var src, dst []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i == 0 || rng.Float64() < 0.2 {
				src, dst = append(src, i), append(dst, j)
			}
		}
	}
	adj := FromEdges(n, src, dst, true)
	adj.Val = make([]float64, adj.NNZ())
	for i := range adj.Val {
		adj.Val[i] = rng.NormFloat64()
	}
	pattern := FromEdges(n, src, dst, true)
	op, stored := NewNormalized(pattern, GammaSymmetric), NormalizedAdjacency(pattern, GammaSymmetric)
	var rows []int
	for r := 0; r < n; r++ {
		if r%4 != 3 {
			rows = append(rows, r)
		}
	}

	f := 2049
	x := mat.Randn(n, f, 1, rng)
	ref := refMulRows(adj, rows, x)
	got := make([]float64, len(rows)*f)
	MulRowsInto(adj, rows, nil, adj.Val, x.Data, f, 1, got)
	for i, want := range ref.Data {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("f=%d f64 MulRowsInto element %d = %v, row-serial %v", f, i, got[i], want)
		}
	}
	refOp := refMulRows(stored, rows, x)
	MulNormalizedRowsInto(op, rows, nil, nil, x.Data, nil, f, got)
	for i, want := range refOp.Data {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("f=%d f64 MulNormalizedRowsInto element %d = %v, stored Â %v", f, i, got[i], want)
		}
	}

	f = 4100
	x = mat.Randn(n, f, 1, rng)
	av, x32 := lower32(adj, x)
	got32 := make([]float32, len(rows)*f)
	MulRowsInto(adj, rows, nil, av, x32, f, 1, got32)
	if i, ok := sameBits32(got32, refMulRows32(adj, rows, av, x32, f)); !ok {
		t.Fatalf("f=%d f32 MulRowsInto drifts from row-serial at %d", f, i)
	}
	sv, _ := lower32(stored, x)
	MulNormalizedRowsInto(op, rows, nil, nil, x32, nil, f, got32)
	if i, ok := sameBits32(got32, refMulRows32(stored, rows, sv, x32, f)); !ok {
		t.Fatalf("f=%d f32 MulNormalizedRowsInto drifts from stored Â at %d", f, i)
	}

	f = 16400
	x = mat.Randn(n, f, 1, rng)
	aq, sa := kernel.Quantize(adj.Val)
	xq, sx := kernel.Quantize(x.Data)
	got8 := make([]float32, len(rows)*f)
	MulRowsInto(adj, rows, nil, aq, xq, f, sa*sx, got8)
	if i, ok := sameBits32(got8, refMulRows8(adj, rows, aq, xq, f, sa*sx)); !ok {
		t.Fatalf("f=%d int8 MulRowsInto drifts from row-serial at %d", f, i)
	}
}
