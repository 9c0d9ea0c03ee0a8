package sparse

import (
	"fmt"

	"repro/internal/par"
)

// Relaxed-precision row-subset SpMM kernels. These are the f32 and int8
// siblings of MulDenseRows/MulDenseRowsCompact: same row-subset semantics,
// same nnz-balanced parallel split, same cache-blocked column walk — but the
// dense operands are flat row-major slices of the tier's element type
// instead of *mat.Matrix, and the arithmetic is genuinely narrow (float32
// accumulation for the f32 tier, int8×int8→int32 accumulation dequantized
// per element for the int8 tier), not a float64 pass over casts.
//
// The sparse values arrive pre-lowered and aligned with Val: av[k] (float32)
// or aq[k] (int8, symmetric per-tensor) corresponds to Val[k], so one global
// lowering of a normalized adjacency serves every row subset, and a sub-CSR
// cut with ExtractRowsInto can reuse the global lowering via GatherRowVals
// (the extraction copies values in concatenated row order).

// MulDenseRows32 computes out[r·f : r·f+f] = (a·x)[r] in float32 for each r
// in rows, leaving other rows of out untouched, and returns the
// multiply-accumulate count. av must align with a.Val, x must be a.Cols×f
// row-major, out a.Rows×f row-major, non-aliasing; rows must not contain
// duplicates (parallel chunks write disjoint output rows). It runs the f64
// tier's kernel body (mulRowsBlocked) at float32, so the tier keeps one fixed
// accumulation order — bit-stable under blocking, batching and sharding.
func (a *CSR) MulDenseRows32(rows []int, av, x []float32, f int, out []float32) int {
	a.checkRelaxed(len(av), len(x), len(out), a.Rows, f, "MulDenseRows32")
	return mulRowsBlocked(a, rows, rows, av, x, f, out, par.ColBlock(f, 4))
}

// MulDenseRowsCompact32 is MulDenseRows32 with the output gathered into
// compact row order: out[k·f : k·f+f] = (a·x)[rows[k]], out len(rows)×f.
// The remap precondition of MulDenseRowsCompact applies unchanged.
func (a *CSR) MulDenseRowsCompact32(rows []int, av, x []float32, f int, out []float32) int {
	a.checkRelaxed(len(av), len(x), len(out), len(rows), f, "MulDenseRowsCompact32")
	return mulRowsBlocked(a, rows, identityRows(len(rows)), av, x, f, out, par.ColBlock(f, 4))
}

// MulDenseRows8 computes out[r·f : r·f+f] = deq · (aq·xq)[r] for each r in
// rows with int8 operands and int32 accumulation: aq aligns with a.Val, xq
// is a.Cols×f row-major, and deq is the product of the two per-tensor scales
// (adjacency × activation), applied once per output element after the exact
// integer accumulation. out is a.Rows×f float32; other rows stay untouched.
// Returns the multiply-accumulate count.
func (a *CSR) MulDenseRows8(rows []int, aq, xq []int8, f int, deq float64, out []float32) int {
	a.checkRelaxed(len(aq), len(xq), len(out), a.Rows, f, "MulDenseRows8")
	return a.mulDenseRows8Blocked(rows, rows, aq, xq, f, deq, out, par.ColBlock(f, 1))
}

// MulDenseRowsCompact8 is MulDenseRows8 with the output gathered into
// compact row order (out is len(rows)×f float32). The remap precondition of
// MulDenseRowsCompact applies unchanged.
func (a *CSR) MulDenseRowsCompact8(rows []int, aq, xq []int8, f int, deq float64, out []float32) int {
	a.checkRelaxed(len(aq), len(xq), len(out), len(rows), f, "MulDenseRowsCompact8")
	return a.mulDenseRows8Blocked(rows, identityRows(len(rows)), aq, xq, f, deq, out, par.ColBlock(f, 1))
}

// checkRelaxed validates the flat operands of a relaxed-tier product: the
// lowered adjacency values, the dense input and the output, in elements.
func (a *CSR) checkRelaxed(nvals, nx, nout, outRows, f int, name string) {
	switch {
	case f < 0:
		panic(fmt.Sprintf("sparse: %s negative feature width %d", name, f))
	case nvals != a.NNZ():
		panic(fmt.Sprintf("sparse: %s values length %d != nnz %d", name, nvals, a.NNZ()))
	case nx != a.Cols*f:
		panic(fmt.Sprintf("sparse: %s x length %d != %d×%d", name, nx, a.Cols, f))
	case nout != outRows*f:
		panic(fmt.Sprintf("sparse: %s out length %d != %d×%d", name, nout, outRows, f))
	}
}

// mulDenseRows8Blocked is the cache-blocked int8 kernel behind MulDenseRows8
// and MulDenseRowsCompact8, with mulRowsBlocked's output-row list. Each chunk
// owns one bw-wide int32 accumulator reused across its rows; accumulation is
// exact in int32 (degrees and the ±127 operand range keep |acc| far below 2³¹
// for any graph this repo serves), so block width cannot change a single
// output bit within the tier.
func (a *CSR) mulDenseRows8Blocked(rows, outRows []int, aq, xq []int8, f int, deq float64, out []float32, bw int) int {
	nnz := a.NNZRows(rows)
	if bw <= 0 || bw > f {
		bw = f
	}
	par.ForWeighted(len(rows), nnz*f, nnz,
		func(k int) int { return a.RowNNZ(rows[k]) },
		func(lo, hi int) {
			acc := make([]int32, bw)
			for jb := 0; jb < f; jb += bw {
				je := min(jb+bw, f)
				for k := lo; k < hi; k++ {
					blk := acc[:je-jb]
					clear(blk)
					a.mulRowSpanAcc8(blk, rows[k], aq, xq, f, jb)
					dst := out[outRows[k]*f+jb : outRows[k]*f+je]
					for j := range dst {
						dst[j] = float32(float64(blk[j]) * deq)
					}
				}
			}
		})
	return nnz * f
}

// mulRowSpanAcc8 accumulates columns [jb, jb+len(acc)) of the int8 product
// (aq·xq)[i] into acc without dequantizing. Neighbors are processed four at
// a time: unlike the float tiers, int32 accumulation is exact, so
// reassociating the neighbor sum cannot change a single output bit, and the
// 4-way form quarters the accumulator load/store traffic (the scalar
// bottleneck) while giving the hardware four independent gather streams.
func (a *CSR) mulRowSpanAcc8(acc []int32, i int, aq, xq []int8, f, jb int) {
	cols := a.RowIndices(i)
	base := a.RowPtr[i]
	n := len(acc)
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		v0 := int32(aq[base+k])
		v1 := int32(aq[base+k+1])
		v2 := int32(aq[base+k+2])
		v3 := int32(aq[base+k+3])
		s0 := xq[cols[k]*f+jb:][:n]
		s1 := xq[cols[k+1]*f+jb:][:n]
		s2 := xq[cols[k+2]*f+jb:][:n]
		s3 := xq[cols[k+3]*f+jb:][:n]
		for j := range acc {
			acc[j] += v0*int32(s0[j]) + v1*int32(s1[j]) +
				v2*int32(s2[j]) + v3*int32(s3[j])
		}
	}
	for ; k < len(cols); k++ {
		v := int32(aq[base+k])
		src := xq[cols[k]*f+jb : cols[k]*f+jb+n]
		for j, sv := range src {
			acc[j] += v * int32(sv)
		}
	}
}

// MulRowInto32 computes one full row of the f32 product: dst = (a·x)[i] with
// dst of length f. It is the per-row primitive the engine's fused
// gate+propagate kernel builds on; the result is bit-identical to the row
// the bulk f32 kernels produce (same accumulation order).
func (a *CSR) MulRowInto32(dst []float32, i int, av, x []float32, f int) {
	clear(dst)
	gatherRow(dst, a, i, av, x, f, 0)
}

// MulRowInto8 computes one full row of the int8 product: acc is zeroed,
// accumulated in int32 and dequantized into dst (both of length f) —
// bit-identical to the row the bulk int8 kernels produce.
func (a *CSR) MulRowInto8(dst []float32, acc []int32, i int, aq, xq []int8, f int, deq float64) {
	clear(acc)
	a.mulRowSpanAcc8(acc, i, aq, xq, f, 0)
	for j := range dst {
		dst[j] = float32(float64(acc[j]) * deq)
	}
}

// GatherRowVals32 appends to dst[:0] the av entries of the given rows in
// concatenated row order — exactly the value layout ExtractRowsInto gives
// the sub-CSR it cuts, so a sub-matrix can reuse the global f32 lowering
// without re-lowering per batch. Returns the (possibly grown) slice.
func (a *CSR) GatherRowVals32(rows []int, av []float32, dst []float32) []float32 {
	dst = dst[:0]
	for _, r := range rows {
		dst = append(dst, av[a.RowPtr[r]:a.RowPtr[r+1]]...)
	}
	return dst
}

// GatherRowVals8 is GatherRowVals32 for the int8 lowering: the gathered
// values keep the global per-tensor scale, so sub-CSR products dequantize
// with the same deq as full-graph ones.
func (a *CSR) GatherRowVals8(rows []int, aq []int8, dst []int8) []int8 {
	dst = dst[:0]
	for _, r := range rows {
		dst = append(dst, aq[a.RowPtr[r]:a.RowPtr[r+1]]...)
	}
	return dst
}
