package sparse

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Normalized is the γ-normalized adjacency Â = D̃^{γ−1} Ã D̃^{−γ} of a binary,
// self-loop-free adjacency, held implicitly: the graph's own CSR — shared,
// not copied, and read as a pattern (its values, if any, are never read) —
// and the two degree-factor vectors. Row i of Â is row i of Adj
// with the diagonal merged in at its ascending position, and the value of
// entry (i, c) is the single product Left[i]·Right[c]: the expression
// NormalizedAdjacency stores (its ·1 for the binary entry is exact), so every
// row this type emits carries that matrix's bits. Nothing
// O(nnz) is held beyond the graph itself, by anyone: training, the baselines,
// the λ₂ estimate and the serving engine all multiply by the operator
// (MulNormalizedRowsInto), whose chunks emit a row, gather with it and drop
// it; ExtractRowsInto and RowsInto cut rows into a CSR for the benchmark
// ladder and for the tests that pin the product to MulRowsInto over such a
// cut.
//
// The factors come from Adj's row lengths: row i's looped degree is
// d̃ᵢ = RowNNZ(i)+1, which is LoopedDegrees' value for a pattern, bit for bit.
// At γ = ½ the two exponents are equal, so Left and Right are one slice: the
// factors cost one float64 a node instead of two.
type Normalized struct {
	// Adj is the binary adjacency the pattern is read from; it must hold no
	// diagonal entries (emitting a row panics on one).
	Adj   *CSR
	Gamma float64
	// Left[i] = d̃ᵢ^{γ−1} and Right[i] = d̃ᵢ^{−γ}; the same backing array
	// when γ−1 = −γ.
	Left, Right []float64
}

// NewNormalized binds the operator to adj, every row's factors computed from
// its looped degree.
func NewNormalized(adj *CSR, gamma float64) *Normalized {
	if adj.Rows != adj.Cols {
		panic("sparse: NewNormalized requires a square matrix")
	}
	if gamma < 0 || gamma > 1 {
		panic(fmt.Sprintf("sparse: gamma %v outside [0,1]", gamma))
	}
	a := &Normalized{Adj: adj, Gamma: gamma, Left: make([]float64, adj.Rows)}
	a.Right = a.Left
	if !a.shared() {
		a.Right = make([]float64, adj.Rows)
	}
	for i := range a.Left {
		a.setFactors(i)
	}
	return a
}

// shared reports whether the two factors are one slice: γ−1 = −γ, so both
// are math.Pow(d, −½) of the same degree, bit for bit.
func (a *Normalized) shared() bool { return a.Gamma-1 == -a.Gamma }

// setFactors computes row i's factors from its looped degree in Adj.
func (a *Normalized) setFactors(i int) {
	d := float64(a.Adj.RowNNZ(i) + 1)
	a.Left[i] = math.Pow(d, a.Gamma-1)
	if !a.shared() {
		a.Right[i] = math.Pow(d, -a.Gamma)
	}
}

// Patch rebinds the operator to adj, a later version of the graph (rows only
// appended, entries only added), and recomputes from adj's row lengths the
// factors of the rows in dirty (ascending) — O(|dirty|), whatever the graph's
// size. dirty must hold every row whose looped degree moved and every
// appended row; rows whose factors did not move may be listed too.
func (a *Normalized) Patch(adj *CSR, dirty []int) {
	old, n := len(a.Left), adj.Rows
	if adj.Rows != adj.Cols || n < old {
		panic(fmt.Sprintf("sparse: Normalized.Patch from %d rows to %dx%d", old, adj.Rows, adj.Cols))
	}
	if k := n - old; k > len(dirty) || k > 0 && dirty[len(dirty)-k] != old {
		panic(fmt.Sprintf("sparse: Normalized.Patch appended rows [%d,%d) not all marked dirty", old, n))
	}
	a.Adj = adj
	a.Left = mat.Extend(a.Left, n-old)
	if a.shared() {
		a.Right = a.Left
	} else {
		a.Right = mat.Extend(a.Right, n-old)
	}
	for _, i := range dirty {
		a.setFactors(i)
	}
}

// N returns the number of rows (and columns).
func (a *Normalized) N() int { return a.Adj.Rows }

// NNZ returns the number of entries of Â: Adj's plus the diagonal.
func (a *Normalized) NNZ() int { return a.Adj.NNZ() + a.Adj.Rows }

// RowNNZ returns the number of entries in row i of Â.
func (a *Normalized) RowNNZ(i int) int { return a.Adj.RowNNZ(i) + 1 }

// NNZRows returns the total number of entries of Â across the given rows.
func (a *Normalized) NNZRows(rows []int) int { return a.Adj.NNZRows(rows) + len(rows) }

// emitRow writes row r of Â into cols/vals — Adj's columns with r merged in
// ascending, each value the one product Left[r]·Right[c] — then maps the
// columns through colMap when it is given, and returns the entry count. A
// column colMap maps to −1 is outside it and panics; one mapped to c ≤ −2
// names row −2−c of a split product's second operand
// (MulNormalizedRowsSplitInto), which no other product can read.
func (a *Normalized) emitRow(r int, colMap []int32, cols []int32, vals []float64) int {
	src := a.Adj.RowIndices(r)
	cols, vals = cols[:len(src)+1], vals[:len(src)+1]
	li, right, self := a.Left[r], a.Right, int32(r)
	k := 0
	for ; k < len(src) && src[k] < self; k++ {
		cols[k], vals[k] = src[k], li*right[src[k]]
	}
	if k < len(src) && src[k] == self {
		panic(fmt.Sprintf("sparse: Normalized over an adjacency with a self-loop at %d", r))
	}
	cols[k], vals[k] = self, li*right[r]
	for ; k < len(src); k++ {
		cols[k+1], vals[k+1] = src[k], li*right[src[k]]
	}
	if colMap != nil {
		for k, c := range cols {
			lc := colMap[c]
			if lc == -1 {
				panic(fmt.Sprintf("sparse: Normalized row %d has column %d outside the column map", r, c))
			}
			cols[k] = lc
		}
	}
	return len(cols)
}

// ExtractRowsInto is CSR.ExtractRowsInto on Â — same result, same
// preconditions, same reuse of out's slices — with the selected rows' values
// computed on the way instead of copied.
func (a *Normalized) ExtractRowsInto(rows []int, toLocal []int32, m int, out *CSR) {
	extractRows(rows, toLocal, m, m, a.NNZRows(rows), out, func(r, at int) int {
		return a.emitRow(r, toLocal, out.Col[at:], out.Val[at:])
	})
}

// RowsInto cuts the given rows of Â with their columns left global: out
// becomes m×N with row toLocal[r] holding Â's row r, for rows ascending and
// toLocal as in ExtractRowsInto, or — with a nil toLocal and m = len(rows) —
// row k holding Â's row rows[k].
func (a *Normalized) RowsInto(rows []int, toLocal []int32, m int, out *CSR) {
	extractRows(rows, toLocal, m, a.N(), a.NNZRows(rows), out, func(r, at int) int {
		return a.emitRow(r, nil, out.Col[at:], out.Val[at:])
	})
}

// MulDenseRowsCompact computes out[k] = (Â·x)[rows[k]] and returns the
// multiply-accumulate count: MulNormalizedRowsInto at float64 with the compact
// output.
func (a *Normalized) MulDenseRowsCompact(rows []int, x, out *mat.Matrix) int {
	if out.Rows != len(rows) || x.Rows != a.N() {
		panic("sparse: MulDenseRowsCompact shape mismatch")
	}
	return MulNormalizedRowsInto(a, rows, nil, nil, x.Data, nil, x.Cols, out.Data)
}

// MulNormalizedRowsInto is MulRowsInto with Â itself as the sparse operand:
// out[outRows[k]·f : outRows[k]·f+f] = (Â·diag(scales)·x)[rows[k]], other rows
// of out untouched, returning the multiply-accumulate count nnz(rows)·f. No
// row of Â is cut into a CSR first: the row driver's chunks emit each row
// (emitRow: the same Left[r]·Right[c] expression in the same ascending order
// as every other way this type hands out a row) into a buffer of their own,
// multiply each value by its column's scale when scales is given (scales[i]
// belongs to row i of x), lower the values to out's element type there — taken
// as they are at float64, each rounded once at float32 — and gather with them,
// accumulating at out's type over x's elements converted to it (exactly). So
// the result is, bit for bit, that of RowsInto/ExtractRowsInto followed by
// MulRowsInto over the same lowering:
//
//   - float x of out's type with nil scales is the f64 and f32 tiers' product;
//   - int8 x with one symmetric scale per row (kernel.QuantizeInto row by row)
//     is the int8 tier's hop 1: a float32 Â with the scales folded into its
//     columns, over float32(q).
//
// A nil colMap leaves Â's columns global (x is N×f: the feature matrix, or a
// layer of propagated rows indexed by node id); otherwise every column c reads
// row colMap[c] of x — a partial map, in any row order, such as the monotone
// one of ExtractRowsInto — and a neighbor outside it panics. rows must hold no duplicates, nor outRows, where
// nil stands for 0..len(rows)−1; out must not alias x.
func MulNormalizedRowsInto[X float64 | float32 | int8, T float64 | float32](a *Normalized, rows, outRows []int, colMap []int32, x []X, scales []float64, f int, out []T) int {
	switch {
	case f < 0:
		panic(fmt.Sprintf("sparse: MulNormalizedRowsInto negative feature width %d", f))
	case colMap == nil && len(x) != a.N()*f:
		panic(fmt.Sprintf("sparse: MulNormalizedRowsInto x length %d != %d×%d", len(x), a.N(), f))
	case outRows != nil && len(outRows) != len(rows) || f > 0 && (len(out)%f != 0 || len(x)%f != 0):
		panic("sparse: MulNormalizedRowsInto shape mismatch")
	case scales != nil && len(scales)*f != len(x):
		panic(fmt.Sprintf("sparse: MulNormalizedRowsInto %d scales for %d rows", len(scales), len(x)/max(f, 1)))
	}
	return mulNormalized(a, rows, outRows, colMap, x, nil, scales, f, out)
}

// MulNormalizedRowsSplitInto is MulNormalizedRowsInto through a column map
// over x's rows split between two blocks of out's element type: column c
// reads row colMap[c] of x when that is ≥ 0 and row −2−colMap[c] of second
// when it is ≤ −2 (−1 panics as ever), so rows held elsewhere — a layer's, say
// — are read where they lie instead of being copied beside the others. Every
// row adds its terms in the one ascending column order whichever block they
// come from, so the result is, bit for bit, MulNormalizedRowsInto over x with
// second's rows appended and colMap remapped to them.
func MulNormalizedRowsSplitInto[T float64 | float32](a *Normalized, rows, outRows []int, colMap []int32, x, second []T, f int, out []T) int {
	if colMap == nil || f > 0 && len(second)%f != 0 {
		panic("sparse: MulNormalizedRowsSplitInto needs a column map and whole rows of its second operand")
	}
	return mulNormalized(a, rows, outRows, colMap, x, second, nil, f, out)
}

// mulNormalized runs an operator product on the float row driver.
func mulNormalized[X float64 | float32 | int8, T float64 | float32](a *Normalized, rows, outRows []int, colMap []int32, x, second []X, scales []float64, f int, out []T) int {
	src := rowSource[T]{rows: rows, op: a, colMap: colMap, scales: scales}
	return mulRowsFloat(src, outRows, x, second, f, out)
}
