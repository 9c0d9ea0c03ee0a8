package sparse

import "repro/internal/par"

// Relaxed-precision row-subset SpMM. The f32 and int8 tiers run MulRowsInto
// like the f64 tier — same row-subset semantics, same nnz-balanced parallel
// split, same cache-blocked column walk — over flat row-major slices of the
// tier's element type, with genuinely narrow arithmetic (float32
// accumulation, or int8×int8→int32 accumulation dequantized per element),
// not a float64 pass over casts.
//
// The sparse values arrive pre-lowered and aligned with Val: av[k] (float32)
// or aq[k] (int8, symmetric per-tensor) corresponds to Val[k], so one
// lowering of a matrix serves every row subset of it. The serving engine
// holds no such matrix: MulNormalizedRowsInto lowers each row of the
// Normalized operator as it emits it, at int8 with the operator's global
// scale, which gives every entry the bits a lowering of the whole matrix
// would.

// MulDenseRows32 computes out[r·f : r·f+f] = (a·x)[r] in float32 for each r
// in rows, leaving other rows of out untouched, and returns the
// multiply-accumulate count: MulRowsInto at float32 with the output scattered
// to a.Rows×f. av must align with a.Val and x be a.Cols×f row-major.
func (a *CSR) MulDenseRows32(rows []int, av, x []float32, f int, out []float32) int {
	if len(out) != a.Rows*f {
		panic("sparse: MulDenseRows32 out shape mismatch")
	}
	return MulRowsInto(a, rows, rows, av, x, f, 1, out)
}

// MulDenseRows8 computes out[r·f : r·f+f] = deq · (aq·xq)[r] for each r in
// rows with int8 operands and int32 accumulation: MulRowsInto at int8 with
// the output scattered to a.Rows×f float32. aq aligns with a.Val, xq is
// a.Cols×f row-major, and deq is the product of the two per-tensor scales
// (adjacency × activation). Returns the multiply-accumulate count.
func (a *CSR) MulDenseRows8(rows []int, aq, xq []int8, f int, deq float64, out []float32) int {
	if len(out) != a.Rows*f {
		panic("sparse: MulDenseRows8 out shape mismatch")
	}
	return MulRowsInto(a, rows, rows, aq, xq, f, deq, out)
}

// mulRows8Blocked is the cache-blocked kernel behind MulRowsInto at the int8
// tier, with mulRowsBlocked's row lists. Each chunk owns one bw-wide
// int32 accumulator reused across its rows; accumulation is exact in int32
// (degrees and the ±127 operand range keep |acc| far below 2³¹ for any graph
// this repo serves), so block width cannot change a single output bit within
// the tier.
func mulRows8Blocked[O float64 | float32](a *CSR, n int, rows, outRows []int, aq, xq []int8, f int, deq float64, out []O, bw int) int {
	nnz := nnzOf(a, n, rows)
	if bw <= 0 || bw > f {
		bw = f
	}
	par.ForWeighted(n, nnz*f, nnz,
		func(k int) int { return a.RowNNZ(rowAt(rows, k)) },
		func(lo, hi int) {
			acc := make([]int32, bw)
			for jb := 0; jb < f; jb += bw {
				je := min(jb+bw, f)
				for k := lo; k < hi; k++ {
					blk := acc[:je-jb]
					clear(blk)
					i := rowAt(rows, k)
					gatherRow8(blk, a.RowIndices(i), aq[a.RowPtr[i]:a.RowPtr[i+1]], xq, f, jb)
					o := rowAt(outRows, k)
					dst := out[o*f+jb : o*f+je]
					for j := range dst {
						dst[j] = O(float64(blk[j]) * deq)
					}
				}
			}
		})
	return nnz * f
}

// gatherRow8 accumulates columns [jb, jb+len(acc)) of Σₖ aq[k]·xq[cols[k]] —
// one row of the int8 product, given as its entries like gatherRow's — into
// acc without dequantizing. Neighbors are processed four at
// a time: unlike the float tiers, int32 accumulation is exact, so
// reassociating the neighbor sum cannot change a single output bit, and the
// 4-way form quarters the accumulator load/store traffic (the scalar
// bottleneck) while giving the hardware four independent gather streams.
func gatherRow8(acc []int32, cols []int, aq, xq []int8, f, jb int) {
	aq = aq[:len(cols)]
	n := len(acc)
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		v0 := int32(aq[k])
		v1 := int32(aq[k+1])
		v2 := int32(aq[k+2])
		v3 := int32(aq[k+3])
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
		v := int32(aq[k])
		src := xq[cols[k]*f+jb : cols[k]*f+jb+n]
		for j, sv := range src {
			acc[j] += v * int32(sv)
		}
	}
}
