package sparse

import "repro/internal/par"

// Every sparse×dense product runs one row driver per accumulator type —
// mulRowsFloat at f64 and f32, mulRowsInt over a stored CSR's int8 values —
// over a rowSource: a stored CSR's rows (MulRowsInto) or the operator's,
// emitted at the product's element type (MulNormalizedRowsInto). A driver runs
// nnz-balanced chunks of rows in parallel and gathers each output row piece by
// piece in one pass over its f columns, every element adding its row's terms
// in ascending column order (exactly, at int8).

// rowSource is where a driver reads the sparse rows of a product: row k is
// row rows[k] of csr, its values the entries of vals (aligned with csr.Val,
// at the operands' element type; nil for all ones), or — when op is set —
// row rows[k] of Â, emitted a piece at a time into the worker's frame by
// emitRow, through colMap and scales when those are given. Drivers take it
// by value, so their chunk closures capture a copy and it never moves to the
// heap.
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

// piece returns the columns and values of row k from entry from on: views of
// the rest of a stored row, or at most rowBufLen entries written into buf —
// the operator's, or ones standing in for a pattern's values.
func (s rowSource[V]) piece(k, from int, buf *rowBuf[V]) ([]int32, []V) {
	r := s.rows[k]
	if s.op != nil {
		n := emitRow(s.op, r, from, s.colMap, s.scales, buf.cols[:], buf.vals[:])
		return buf.cols[:n], buf.vals[:n]
	}
	lo, hi := s.csr.RowPtr[r]+from, s.csr.RowPtr[r+1]
	if s.vals != nil {
		return s.csr.Col[lo:hi], s.vals[lo:hi]
	}
	ones := buf.vals[:min(hi-lo, rowBufLen)]
	for i := range ones {
		ones[i] = 1
	}
	return s.csr.Col[lo:][:len(ones)], ones
}

// rowBufLen is the most entries of a row a driver's worker holds at once:
// all but hub rows fit in one piece, and a longer row is gathered piece by
// piece, each adding its terms after the previous piece's.
const rowBufLen = 96

// rowBuf is a driver worker's fixed frame for one piece of a row: its
// columns and its values at the operands' element type.
type rowBuf[V float64 | float32 | int8] struct {
	cols [rowBufLen]int32
	vals [rowBufLen]V
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
			dst := out[rowAt(outRows, k)*f:][:f]
			clear(dst)
			for from, n := 0, src.rowNNZ(k); from < n; {
				cols, vals := src.piece(k, from, &buf)
				if second == nil {
					gatherRow(dst, cols, vals, x, f)
				} else {
					gatherRowSplit(dst, cols, vals, x, second, f)
				}
				from += len(cols)
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
			dst := out[rowAt(outRows, k)*f:][:f]
			clear(acc)
			for from, n := 0, src.rowNNZ(k); from < n; {
				cols, vals := src.piece(k, from, &buf)
				gatherRow8(acc, cols, vals, x, f)
				from += len(cols)
			}
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
