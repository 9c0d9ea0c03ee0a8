// Package mat provides dense row-major float64 matrices and the linear
// algebra kernels used throughout the repository: parallel GEMM,
// element-wise arithmetic, row reductions and softmax-family transforms.
//
// Shape mismatches are programmer errors and panic, mirroring the
// convention of slice indexing. All functions are deterministic; anything
// stochastic takes an explicit *rand.Rand.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values; element (i,j) is Data[i*Cols+j].
	Data []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromData wraps data (not copied) as an r×c matrix.
func FromData(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// FromRows builds a matrix by copying a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged row %d: len %d != %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Randn fills a new r×c matrix with N(0, std²) entries drawn from rng.
func Randn(r, c int, std float64, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(v), m.Cols))
	}
	copy(m.Row(i), v)
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	sameShape(m, src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// GatherRows returns a new matrix whose i-th row is m's row idx[i].
func (m *Matrix) GatherRows(idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// ScatterAddRows adds src's row i into m's row idx[i].
func (m *Matrix) ScatterAddRows(idx []int, src *Matrix) {
	if len(idx) != src.Rows || src.Cols != m.Cols {
		panic("mat: ScatterAddRows shape mismatch")
	}
	for i, r := range idx {
		dst := m.Row(r)
		s := src.Row(i)
		for j, v := range s {
			dst[j] += v
		}
	}
}

// ConcatCols returns [a | b] (horizontal concatenation).
func ConcatCols(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: ConcatCols rows %d != %d", a.Rows, b.Rows))
	}
	out := New(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i)[:a.Cols], a.Row(i))
		copy(out.Row(i)[a.Cols:], b.Row(i))
	}
	return out
}

// AppendRows grows m in place by src's rows (copied), using the built-in
// append so repeated small appends — e.g. serving-graph node deltas — cost
// amortized O(rows added), not a full-matrix copy each time. Row views taken
// before the call may be left pointing at the old backing array.
func (m *Matrix) AppendRows(src *Matrix) {
	if src.Cols != m.Cols {
		panic(fmt.Sprintf("mat: AppendRows cols %d != %d", src.Cols, m.Cols))
	}
	m.Data = append(m.Data, src.Data...)
	m.Rows += src.Rows
}

// SliceCols returns a copy of columns [lo, hi).
func (m *Matrix) SliceCols(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("mat: SliceCols [%d,%d) out of range for %d cols", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// Equal reports exact element-wise equality of shape and contents.
func Equal(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether all elements differ by at most tol.
func ApproxEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	limit := m.Rows
	if limit > 6 {
		limit = 6
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			s += "; "
		}
		row := m.Row(i)
		cl := len(row)
		if cl > 8 {
			cl = 8
		}
		for j := 0; j < cl; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", row[j])
		}
		if cl < len(row) {
			s += " ..."
		}
	}
	if limit < m.Rows {
		s += "; ..."
	}
	return s + "]"
}

func sameShape(a, b *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
