package sparse

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/mat"
	"repro/internal/par"
)

// Normalized is the γ-normalized adjacency Â = D̃^{γ−1} Ã D̃^{−γ} of a binary,
// self-loop-free adjacency, held implicitly: the graph's own CSR — shared,
// not copied — and the two degree-factor vectors. Row i of Â is row i of Adj
// with the diagonal merged in at its ascending position, and the value of
// entry (i, c) is the single product Left[i]·Right[c]: the expression
// NormalizedAdjacencyWithDegrees stores (its ·1 for the binary entry is
// exact), so every row this type emits carries that matrix's bits. Nothing
// O(nnz) is held beyond the graph itself, by anyone: training, the baselines,
// the λ₂ estimate and the serving engine all multiply by the operator
// (MulNormalizedRowsInto), whose workers emit a row, gather with it and drop
// it; ExtractRowsInto and RowsInto cut rows into a CSR for the benchmark
// ladder and for the tests that pin the product to MulRowsInto over such a
// cut.
//
// The factors come from a looped-degree vector the caller supplies: the
// serving engine passes its stationary state's, which a delta updates before
// Patch reads it.
type Normalized struct {
	// Adj is the binary adjacency the pattern is read from; it must hold no
	// diagonal entries (emitting a row panics on one).
	Adj   *CSR
	Gamma float64
	// Left[i] = d̃ᵢ^{γ−1} and Right[i] = d̃ᵢ^{−γ}.
	Left, Right []float64
}

// NewNormalized binds the operator to adj with the factors of looped, which
// must hold a positive looped degree d̃ᵢ for every row.
func NewNormalized(adj *CSR, gamma float64, looped []float64) *Normalized {
	if adj.Rows != adj.Cols {
		panic("sparse: NewNormalized requires a square matrix")
	}
	if gamma < 0 || gamma > 1 {
		panic(fmt.Sprintf("sparse: gamma %v outside [0,1]", gamma))
	}
	if len(looped) < adj.Rows {
		panic(fmt.Sprintf("sparse: %d looped degrees for %d nodes", len(looped), adj.Rows))
	}
	a := &Normalized{Adj: adj, Gamma: gamma, Left: make([]float64, adj.Rows), Right: make([]float64, adj.Rows)}
	for i := range a.Left {
		a.setFactors(i, looped[i])
	}
	return a
}

func (a *Normalized) setFactors(i int, d float64) {
	if d <= 0 {
		panic(fmt.Sprintf("sparse: node %d has non-positive looped degree %v", i, d))
	}
	a.Left[i] = math.Pow(d, a.Gamma-1)
	a.Right[i] = math.Pow(d, -a.Gamma)
}

// Patch rebinds the operator to adj, a later version of the graph (rows only
// appended, entries only added), and recomputes from looped the factors of
// the rows in dirty (ascending) — O(|dirty|), whatever the graph's size.
// dirty must hold every row whose looped degree moved and every appended
// row; rows whose factors did not move may be listed too.
func (a *Normalized) Patch(adj *CSR, looped []float64, dirty []int) {
	old, n := len(a.Left), adj.Rows
	if adj.Rows != adj.Cols || n < old || len(looped) < n {
		panic(fmt.Sprintf("sparse: Normalized.Patch from %d rows to %dx%d with %d looped degrees", old, adj.Rows, adj.Cols, len(looped)))
	}
	if k := n - old; k > len(dirty) || k > 0 && dirty[len(dirty)-k] != old {
		panic(fmt.Sprintf("sparse: Normalized.Patch appended rows [%d,%d) not all marked dirty", old, n))
	}
	a.Adj = adj
	a.Left = append(a.Left, make([]float64, n-old)...)
	a.Right = append(a.Right, make([]float64, n-old)...)
	for _, i := range dirty {
		a.setFactors(i, looped[i])
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
// columns through colMap when it is given, and returns the entry count.
func (a *Normalized) emitRow(r int, colMap []int32, cols []int, vals []float64) int {
	src := a.Adj.RowIndices(r)
	cols, vals = cols[:len(src)+1], vals[:len(src)+1]
	li, right := a.Left[r], a.Right
	k := 0
	for ; k < len(src) && src[k] < r; k++ {
		cols[k], vals[k] = src[k], li*right[src[k]]
	}
	if k < len(src) && src[k] == r {
		panic(fmt.Sprintf("sparse: Normalized over an adjacency with a self-loop at %d", r))
	}
	cols[k], vals[k] = r, li*right[r]
	for ; k < len(src); k++ {
		cols[k+1], vals[k+1] = src[k], li*right[src[k]]
	}
	if colMap != nil {
		for k, c := range cols {
			lc := colMap[c]
			if lc < 0 {
				panic(fmt.Sprintf("sparse: Normalized row %d has column %d outside the column map", r, c))
			}
			cols[k] = int(lc)
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
// row of Â is cut into a CSR first: the row driver's workers emit each row
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
// row colMap[c] of x, the monotone partial map of ExtractRowsInto, and a
// neighbor outside it panics. rows must hold no duplicates, nor outRows, where
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
	src := rowSource[T]{rows: rows, op: a, colMap: colMap, scales: scales}
	return mulRowsFloat(src, outRows, x, f, out, par.ColBlock(f, int(unsafe.Sizeof(out[0]))))
}
