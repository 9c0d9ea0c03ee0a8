package mat

import (
	"fmt"

	"repro/internal/par"
)

// MatMul returns a·b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	out := New(a.Rows, b.Cols)
	gemmInto(out, a, b)
	return out
}

// MatMulInto computes dst = a·b, reusing dst's storage. dst must not alias a or b.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMulInto inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulInto dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	gemmInto(dst, a, b)
}

// gemmInto accumulates a·b into out (out must be zeroed by the caller).
// Uses the cache-friendly ikj ordering and splits rows across goroutines
// via the shared par helper.
func gemmInto(out, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	par.For(m, m*k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b.Data[p*n : (p+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
}

// MatMulTN returns aᵀ·b without materializing the transpose.
func MatMulTN(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MatMulTN inner dims %d != %d", a.Rows, b.Rows))
	}
	m, k, n := a.Cols, a.Rows, b.Cols
	out := New(m, n)
	// (aᵀb)[i][j] = Σ_p a[p][i] b[p][j]; iterate p outer for sequential access.
	for p := 0; p < k; p++ {
		arow := a.Row(p)
		brow := b.Row(p)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulNT returns a·bᵀ without materializing the transpose.
func MatMulNT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulNT inner dims %d != %d", a.Cols, b.Cols))
	}
	m, k, n := a.Rows, a.Cols, b.Rows
	out := New(m, n)
	par.For(m, m*k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < n; j++ {
				brow := b.Row(j)
				var s float64
				for p := 0; p < k; p++ {
					s += arow[p] * brow[p]
				}
				orow[j] = s
			}
		}
	})
	return out
}

// MatVec returns a·x for a column vector x (len a.Cols).
func MatVec(a *Matrix, x []float64) []float64 {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("mat: MatVec len %d != cols %d", len(x), a.Cols))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}
