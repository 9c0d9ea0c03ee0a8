package sparse

import "repro/internal/par"

// Every sparse×dense product runs one row driver per accumulator type —
// mulRowsFloat at f64 and f32, mulRowsInt over a stored CSR's int8 values —
// over a rowSource: a stored CSR's rows (MulRowsInto) or the operator's,
// emitted and lowered one at a time (MulNormalizedRowsInto). A driver runs
// nnz-balanced chunks of rows in parallel and gathers each output row in one
// pass over its f columns, every element adding its row's terms in ascending
// column order (exactly, at int8).

// rowSource is where a driver reads the sparse rows of a product: row k is
// row rows[k] of csr, its values the entries of vals (aligned with csr.Val,
// at the operands' element type; nil for all ones), or — when op is set —
// row rows[k] of Â, emitted on demand, its columns mapped through colMap when
// that is given, each value multiplied by its column's entry of scales when
// those are given, then lowered to V. Drivers take it by value, so their chunk closures capture
// a copy and it never moves to the heap.
type rowSource[V float64 | float32 | int8] struct {
	rows   []int
	csr    *CSR
	vals   []V
	op     *Normalized
	colMap []int32
	scales []float64
}

// rowNNZ returns the entry count of row k, the weight of the parallel split.
func (s rowSource[V]) rowNNZ(k int) int {
	if s.op != nil {
		return s.op.RowNNZ(s.rows[k])
	}
	return s.csr.RowNNZ(s.rows[k])
}

// nnz returns the entry count of every row.
func (s rowSource[V]) nnz() int {
	if s.op != nil {
		return s.op.NNZRows(s.rows)
	}
	return s.csr.NNZRows(s.rows)
}

// row returns row k's columns and values: views of the stored matrix (its
// values as ones in buf when vals is nil), or the operator's row emitted into
// buf.
func (s rowSource[V]) row(k int, buf *rowBuf[V]) ([]int32, []V) {
	r := s.rows[k]
	if s.op == nil {
		lo, hi := s.csr.RowPtr[r], s.csr.RowPtr[r+1]
		if s.vals == nil {
			_, _, ones := buf.room(hi - lo)
			for i := range ones {
				ones[i] = 1
			}
			return s.csr.Col[lo:hi], ones
		}
		return s.csr.Col[lo:hi], s.vals[lo:hi]
	}
	cols, vals, low := buf.room(s.op.RowNNZ(r))
	s.op.emitRow(r, s.colMap, cols, vals)
	if s.scales != nil {
		for k, c := range cols {
			vals[k] *= s.scales[c]
		}
	}
	return cols, lowerRow(low, vals)
}

// rowBufLen is the row length a driver's worker holds in its own frame: all
// but hub rows fit, and a longer one moves the worker's buffers to the heap
// for the rest of its chunk.
const rowBufLen = 96

// rowBuf is a driver worker's room for one emitted row: columns, values as
// emitted, and values at the operands' element type.
type rowBuf[V float64 | float32 | int8] struct {
	c0   [rowBufLen]int32
	v0   [rowBufLen]float64
	l0   [rowBufLen]V
	cols []int32
	vals []float64
	low  []V
}

// room returns the buffers cut to n entries: the frame's arrays when n fits
// them, otherwise heap slices grown geometrically. Contents are not preserved.
func (b *rowBuf[V]) room(n int) ([]int32, []float64, []V) {
	if n <= rowBufLen {
		return b.c0[:n], b.v0[:n], b.l0[:n]
	}
	if n > len(b.cols) {
		c := GrownCap(max(len(b.cols), rowBufLen), n)
		b.cols, b.vals, b.low = make([]int32, c), make([]float64, c), make([]V, c)
	}
	return b.cols[:n], b.vals[:n], b.low[:n]
}

// lowerRow returns src at element type V: src itself at float64, each value
// rounded once into dst at float32.
func lowerRow[V float64 | float32 | int8](dst []V, src []float64) []V {
	switch d := any(dst).(type) {
	case []float64:
		return any(src).([]V)
	case []float32:
		for i, v := range src {
			d[i] = float32(v)
		}
		return dst[:len(src)]
	}
	panic("sparse: operator rows lower to float64 or float32")
}

// rowAt reads entry k of an output-row list, where a nil list stands for the
// identity 0, 1, 2, ….
func rowAt(list []int, k int) int {
	if list == nil {
		return k
	}
	return list[k]
}

// mulRowsFloat is the row driver of the f64 and f32 tiers: output row
// rowAt(outRows, k) of out becomes Σ vals·x over src's row k, x's elements
// converted to T (exactly) and accumulated at T. With a second operand, x's
// rows are split between two blocks: a column c ≤ −2 reads row −2−c of second
// (gatherRowSplit), chosen once per row, so a product without one runs
// gatherRow alone. It returns the multiply-accumulate count nnz·f.
func mulRowsFloat[T float64 | float32, X float64 | float32 | int8](src rowSource[T], outRows []int, x, second []X, f int, out []T) int {
	nnz := src.nnz()
	par.ForWeighted(len(src.rows), nnz*f, nnz, src.rowNNZ, func(lo, hi int) {
		var buf rowBuf[T]
		for k := lo; k < hi; k++ {
			cols, vals := src.row(k, &buf)
			dst := out[rowAt(outRows, k)*f:][:f]
			clear(dst)
			if second == nil {
				gatherRow(dst, cols, vals, x, f)
			} else {
				gatherRowSplit(dst, cols, vals, x, second, f)
			}
		}
	})
	return nnz * f
}

// mulRowsInt is mulRowsFloat over a stored CSR's int8 values and int8 x: each
// row accumulates exactly in one int32 accumulator per par chunk, and each
// output element is dequantized once by deq, the product of the two
// per-tensor scales.
func mulRowsInt[O float64 | float32](src rowSource[int8], outRows []int, x []int8, f int, deq float64, out []O) int {
	nnz := src.nnz()
	par.ForWeighted(len(src.rows), nnz*f, nnz, src.rowNNZ, func(lo, hi int) {
		var buf rowBuf[int8]
		acc := make([]int32, f)
		for k := lo; k < hi; k++ {
			cols, vals := src.row(k, &buf)
			dst := out[rowAt(outRows, k)*f:][:f]
			clear(acc)
			gatherRow8(acc, cols, vals, x, f)
			for j := range dst {
				dst[j] = O(float64(acc[j]) * deq)
			}
		}
	})
	return nnz * f
}

// mulRows runs a stored CSR's product on its element type's driver. Float
// operands need an output of their own type.
func mulRows[V float64 | float32 | int8, O float64 | float32](src rowSource[V], outRows []int, x []V, f int, deq float64, out []O) int {
	switch s := any(src).(type) {
	case rowSource[int8]:
		return mulRowsInt(s, outRows, any(x).([]int8), f, deq, out)
	case rowSource[O]:
		return mulRowsFloat(s, outRows, any(x).([]O), nil, f, out)
	}
	panic("sparse: float operands and output must share one element type")
}

// gatherRow accumulates Σₖ vals[k]·x[cols[k]] — one row of a sparse×dense
// product, given as its entries, x's elements converted to T — into dst's f
// columns: the one neighbor gather of every tier's engine (x is int8 at the
// int8 tier's hop 1). Neighbors are taken four at a time so four independent
// source-row loads are in flight instead of one dependent load per neighbor
// (the gather is latency-bound once x outgrows L2), but
// every element still adds its terms one by one in ascending column order —
// t += v0·s0[j], then v1·s1[j], … — so the result is bit-identical to the
// one-neighbor-at-a-time loop.
func gatherRow[T float64 | float32, X float64 | float32 | int8](dst []T, cols []int32, vals []T, x []X, f int) {
	vals = vals[:len(cols)]
	dst = dst[:f]
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		v0, v1, v2, v3 := vals[k], vals[k+1], vals[k+2], vals[k+3]
		s0 := x[int(cols[k])*f:][:f]
		s1 := x[int(cols[k+1])*f:][:f]
		s2 := x[int(cols[k+2])*f:][:f]
		s3 := x[int(cols[k+3])*f:][:f]
		for j := range dst {
			t := dst[j]
			t += v0 * T(s0[j])
			t += v1 * T(s1[j])
			t += v2 * T(s2[j])
			t += v3 * T(s3[j])
			dst[j] = t
		}
	}
	for ; k < len(cols); k++ {
		v := vals[k]
		for j, sv := range x[int(cols[k])*f:][:f] {
			dst[j] += v * T(sv)
		}
	}
}

// gatherRowSplit is gatherRow over two row stores: an entry whose column c is
// ≥ 0 reads row c of x, one whose column is ≤ −2 row −2−c of second. Each
// entry's source is picked once, outside the element loop, and every element
// adds its terms in gatherRow's order, so the result is gatherRow's over x with
// second's rows appended, bit for bit.
func gatherRowSplit[T float64 | float32, X float64 | float32 | int8](dst []T, cols []int32, vals []T, x, second []X, f int) {
	vals = vals[:len(cols)]
	dst = dst[:f]
	at := func(c int32) []X {
		if c >= 0 {
			return x[int(c)*f:][:f]
		}
		return second[int(-2-c)*f:][:f]
	}
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		v0, v1, v2, v3 := vals[k], vals[k+1], vals[k+2], vals[k+3]
		s0, s1, s2, s3 := at(cols[k]), at(cols[k+1]), at(cols[k+2]), at(cols[k+3])
		for j := range dst {
			t := dst[j]
			t += v0 * T(s0[j])
			t += v1 * T(s1[j])
			t += v2 * T(s2[j])
			t += v3 * T(s3[j])
			dst[j] = t
		}
	}
	for ; k < len(cols); k++ {
		v := vals[k]
		for j, sv := range at(cols[k]) {
			dst[j] += v * T(sv)
		}
	}
}

// gatherRow8 accumulates Σₖ aq[k]·xq[cols[k]] — one row of a stored CSR's
// int8 product, given as its entries like gatherRow's — into acc's f columns
// without dequantizing. Neighbors are processed four at a time: unlike the
// float tiers, int32 accumulation is exact (degrees and the ±127 operand range
// keep |acc| far below 2³¹ for any graph this repo serves), so reassociating
// the neighbor sum cannot change a single output bit, and the 4-way form
// quarters the accumulator load/store traffic (the scalar bottleneck) while
// giving the hardware four independent gather streams.
func gatherRow8(acc []int32, cols []int32, aq, xq []int8, f int) {
	aq = aq[:len(cols)]
	acc = acc[:f]
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		v0 := int32(aq[k])
		v1 := int32(aq[k+1])
		v2 := int32(aq[k+2])
		v3 := int32(aq[k+3])
		s0 := xq[int(cols[k])*f:][:f]
		s1 := xq[int(cols[k+1])*f:][:f]
		s2 := xq[int(cols[k+2])*f:][:f]
		s3 := xq[int(cols[k+3])*f:][:f]
		for j := range acc {
			acc[j] += v0*int32(s0[j]) + v1*int32(s1[j]) +
				v2*int32(s2[j]) + v3*int32(s3[j])
		}
	}
	for ; k < len(cols); k++ {
		v := int32(aq[k])
		for j, sv := range xq[int(cols[k])*f:][:f] {
			acc[j] += v * int32(sv)
		}
	}
}
