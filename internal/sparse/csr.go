// Package sparse implements compressed-sparse-row matrices and the graph
// algebra used by Scalable GNNs: adjacency construction, self-loops, and the
// γ-normalization family Â = D̃^{γ−1} Ã D̃^{−γ} of the paper's Eq. (1), held
// as an operator (Normalized) that training, the baselines and serving all
// multiply by without storing a row of Â. Every sparse×dense product runs one
// row driver per accumulator type (rows.go), with exact multiply-accumulate
// accounting. NormalizedAdjacency, the stored Â, and the CSR product forms
// over it remain as the tests' reference and for the benchmark ladder.
//
// A graph's adjacency is a pattern: its CSR holds column ids and no values
// (a nil Val means every stored entry is 1), since every entry of Â is a
// function of the degrees alone. Column ids are int32, so an adjacency costs
// 8·(n+1) + 4·nnz bytes; FromEdges and AppendEdges refuse n > math.MaxInt32.
// A CSR with real values, such as the stored Â, keeps its Val.
package sparse

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/mat"
)

// CSR is a sparse matrix in compressed sparse row format. Column indices are
// int32 (4 bytes an entry) and within each row sorted ascending and unique;
// RowPtr stays int. A nil Val makes the matrix a pattern: every stored entry
// is 1, as in a graph's binary adjacency.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // length Rows+1
	Col        []int32   // length NNZ
	Val        []float64 // length NNZ, or nil for a pattern
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Col) }

// Clone returns a deep copy sharing no storage with a; a pattern's copy is a
// pattern.
func (a *CSR) Clone() *CSR {
	return &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: exactCopy(a.RowPtr),
		Col:    exactCopy(a.Col),
		Val:    exactCopy(a.Val),
	}
}

// exactCopy returns a copy of s with no spare capacity (nil stays nil): a
// graph's arrays live as long as it does.
func exactCopy[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// RowNNZ returns the number of stored entries in row i.
func (a *CSR) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// RowIndices returns the column indices of row i (a view, do not mutate).
func (a *CSR) RowIndices(i int) []int32 { return a.Col[a.RowPtr[i]:a.RowPtr[i+1]] }

// RowValues returns the values of row i: a view of Val (do not mutate), or
// for a pattern a fresh slice of ones.
func (a *CSR) RowValues(i int) []float64 {
	if a.Val == nil {
		ones := make([]float64, a.RowNNZ(i))
		for k := range ones {
			ones[k] = 1
		}
		return ones
	}
	return a.Val[a.RowPtr[i]:a.RowPtr[i+1]]
}

// val returns stored entry p: Val[p], or 1 in a pattern.
func (a *CSR) val(p int) float64 {
	if a.Val == nil {
		return 1
	}
	return a.Val[p]
}

// RowSum returns the in-order sum of row i's values: its entry count for a
// pattern (summing ones is exact, so the two agree bit for bit).
func (a *CSR) RowSum(i int) float64 {
	if a.Val == nil {
		return float64(a.RowNNZ(i))
	}
	var s float64
	for _, v := range a.RowValues(i) {
		s += v
	}
	return s
}

// At returns element (i, j) by binary search over row i.
func (a *CSR) At(i, j int) float64 {
	if j < 0 || j > math.MaxInt32 {
		return 0
	}
	if k, ok := slices.BinarySearch(a.RowIndices(i), int32(j)); ok {
		return a.val(a.RowPtr[i] + k)
	}
	return 0
}

// checkIDWidth panics unless node ids below n fit a column index.
func checkIDWidth(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %d nodes exceed the int32 column ids (at most %d)", n, math.MaxInt32))
	}
}

// FromEdges builds an n×n binary adjacency — a pattern, with no stored values
// — from the edge list. Duplicate edges and self-loops in the input are
// dropped; with undirected=true each edge is stored in both directions.
// n must not exceed math.MaxInt32.
func FromEdges(n int, src, dst []int, undirected bool) *CSR {
	checkIDWidth(n)
	if len(src) != len(dst) {
		panic(fmt.Sprintf("sparse: %d sources for %d destinations", len(src), len(dst)))
	}
	adj := make([][]int32, n)
	addEdge := func(u, v int) {
		if u == v {
			return
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("sparse: edge (%d,%d) outside [0,%d)", u, v, n))
		}
		adj[u] = append(adj[u], int32(v))
	}
	for i := range src {
		addEdge(src[i], dst[i])
		if undirected {
			addEdge(dst[i], src[i])
		}
	}
	return fromAdjLists(n, n, adj)
}

// fromAdjLists converts per-row column lists to a pattern CSR, sorting and
// deduplicating each list in place; Col is allocated at its exact length.
func fromAdjLists(rows, cols int, adj [][]int32) *CSR {
	out := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i, list := range adj {
		slices.Sort(list)
		adj[i] = slices.Compact(list)
		out.RowPtr[i+1] = out.RowPtr[i] + len(adj[i])
	}
	out.Col = make([]int32, 0, out.RowPtr[rows])
	for _, list := range adj {
		out.Col = append(out.Col, list...)
	}
	return out
}

// AddSelfLoops returns a copy of a with value 1 on every diagonal entry
// (existing diagonal values are overwritten with 1); a pattern's copy is a
// pattern. Requires a square matrix.
func (a *CSR) AddSelfLoops() *CSR {
	if a.Rows != a.Cols {
		panic("sparse: AddSelfLoops requires a square matrix")
	}
	out := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1), Col: make([]int32, 0, a.NNZ()+a.Rows)}
	if a.Val != nil {
		out.Val = make([]float64, 0, a.NNZ()+a.Rows)
	}
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		k, self := slices.BinarySearch(a.Col[lo:hi], int32(i))
		k += lo
		rest := k
		if self {
			rest++
		}
		out.Col = append(append(append(out.Col, a.Col[lo:k]...), int32(i)), a.Col[rest:hi]...)
		if a.Val != nil {
			out.Val = append(append(append(out.Val, a.Val[lo:k]...), 1), a.Val[rest:hi]...)
		}
		out.RowPtr[i+1] = len(out.Col)
	}
	return out
}

// Degrees returns the per-row sum of values (RowSum): for a binary adjacency,
// a pattern, this is the out-degree.
func (a *CSR) Degrees() []float64 {
	out := make([]float64, a.Rows)
	for i := range out {
		out[i] = a.RowSum(i)
	}
	return out
}

// ToDense materializes the matrix (for tests on small inputs).
func (a *CSR) ToDense() *mat.Matrix {
	out := mat.New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			out.Set(i, int(a.Col[p]), a.val(p))
		}
	}
	return out
}

// MulDenseRows computes out[r] = (a·x)[r] for each r in rows, leaving other
// rows of out untouched, and returns the multiply-accumulate count: MulRowsInto
// at float64 with the output scattered to a.Rows×x.Cols (a pattern's entries
// are ones). rows must hold no duplicates and out must not alias x.
func (a *CSR) MulDenseRows(rows []int, x, out *mat.Matrix) int {
	if out.Rows != a.Rows {
		panic("sparse: MulDenseRows out shape mismatch")
	}
	return MulRowsInto(a, rows, rows, a.Val, x.Data, x.Cols, 1, out.Data)
}

// MulDenseRows32 is MulDenseRows in float32: av aligns with a.Val, x is
// a.Cols×f row-major and out a.Rows×f.
func (a *CSR) MulDenseRows32(rows []int, av, x []float32, f int, out []float32) int {
	if len(out) != a.Rows*f {
		panic("sparse: MulDenseRows32 out shape mismatch")
	}
	return MulRowsInto(a, rows, rows, av, x, f, 1, out)
}

// MulDenseRows8 is MulDenseRows with int8 operands and int32 accumulation:
// aq aligns with a.Val, xq is a.Cols×f row-major, out a.Rows×f float32, and
// deq the product of the two per-tensor scales (adjacency × activation).
func (a *CSR) MulDenseRows8(rows []int, aq, xq []int8, f int, deq float64, out []float32) int {
	if len(out) != a.Rows*f {
		panic("sparse: MulDenseRows8 out shape mismatch")
	}
	return MulRowsInto(a, rows, rows, aq, xq, f, deq, out)
}

// MulRowsInto is the row-subset SpMM over a stored CSR, at every precision
// tier: out[outRows[k]·f : outRows[k]·f+f] = (a·x)[rows[k]], other rows of out
// untouched, returning the multiply-accumulate count nnz(rows)·f. vals stands
// in for a.Val at the operands' element type (aligned with it, so one global
// lowering of a matrix serves every row subset; nil stands for all ones, a
// pattern's values at any type), x is a.Cols×f row-major and
// out holds f columns per row, both flat. The element types pick the driver:
//
//   - float64 or float32 operands accumulate at that type into an out of the
//     same type (anything else panics), every element adding its neighbors'
//     terms in ascending column order — one fixed order per tier, bit-stable
//     under parallel splits, batching and sharding; deq is unused;
//   - int8 operands (symmetric per-tensor quantisations) accumulate exactly
//     in int32, and each output element is dequantised once by deq, the
//     product of the two scales.
//
// Neither row list may contain duplicates (parallel chunks write disjoint
// output rows) and out must not alias x. A nil outRows stands for
// 0..len(rows)−1, the compact output: row k is rows[k], so a caller feeding
// compacted coordinates passes rows in the order its local universe was
// indexed in.
func MulRowsInto[V float64 | float32 | int8, O float64 | float32](a *CSR, rows, outRows []int, vals, x []V, f int, deq float64, out []O) int {
	switch {
	case f < 0:
		panic(fmt.Sprintf("sparse: MulRowsInto negative feature width %d", f))
	case vals != nil && len(vals) != a.NNZ():
		panic(fmt.Sprintf("sparse: MulRowsInto values length %d != nnz %d", len(vals), a.NNZ()))
	case len(x) != a.Cols*f:
		panic(fmt.Sprintf("sparse: MulRowsInto x length %d != %d×%d", len(x), a.Cols, f))
	case outRows != nil && len(outRows) != len(rows) || f > 0 && len(out)%f != 0:
		panic("sparse: MulRowsInto out shape mismatch")
	}
	return mulRows(rowSource[V]{rows: rows, csr: a, vals: vals}, outRows, x, f, deq, out)
}

// ExtractRowsInto builds the compacted sub-matrix of a over a local node
// universe: out becomes an m×m CSR whose row toLocal[r], for each r in rows,
// holds a's row r with every column index c remapped to toLocal[c] (and its
// values, ones for a pattern); rows of out not named by `rows` are empty.
//
// Remap preconditions (panic where detectable): rows must be sorted
// ascending, and toLocal must be a monotone partial map into [0,m) — as
// produced by graph.IndexSet over a sorted universe of size m — that covers
// every selected row and every neighbor of a selected row. An unmapped
// neighbor panics, since it means the universe is not neighbor-closed over
// rows; monotonicity is what keeps the remapped column indices of each row
// sorted, preserving the CSR invariant without a per-row sort. out's slices
// are reused and grown geometrically, so serving paths can extract one
// sub-CSR per batch with no steady-state allocation.
func (a *CSR) ExtractRowsInto(rows []int, toLocal []int32, m int, out *CSR) {
	extractRows(rows, toLocal, m, m, a.NNZRows(rows), out, func(r, at int) int {
		lo := a.RowPtr[r]
		for k, c := range a.RowIndices(r) {
			lc := toLocal[c]
			if lc < 0 {
				panic(fmt.Sprintf("sparse: ExtractRowsInto neighbor %d of row %d outside the universe", c, r))
			}
			out.Col[at+k] = lc
			out.Val[at+k] = a.val(lo + k)
		}
		return a.RowNNZ(r)
	})
}

// extractRows is the body the row extractions share (CSR.ExtractRowsInto and
// Normalized's two): it shapes out as m×cols with room for nnz entries,
// reusing its slices, then for each r in rows has emit write the row's
// entries at out.Col[at:] and out.Val[at:] — emit returns how many — and
// closes the row pointers around them. Row r lands at toLocal[r], which must
// ascend within [0,m); with a nil toLocal, row rows[k] lands at k.
func extractRows(rows []int, toLocal []int32, m, cols, nnz int, out *CSR, emit func(r, at int) int) {
	out.Rows, out.Cols = m, cols
	if cap(out.RowPtr) < m+1 {
		out.RowPtr = make([]int, m+1, GrownCap(cap(out.RowPtr), m+1))
	}
	out.RowPtr = out.RowPtr[:m+1]
	if cap(out.Col) < nnz || cap(out.Val) < nnz {
		c := GrownCap(cap(out.Col), nnz)
		out.Col = make([]int32, nnz, c)
		out.Val = make([]float64, nnz, c)
	}
	out.Col = out.Col[:nnz]
	out.Val = out.Val[:nnz]
	ptr, next := 0, 0 // next: first local row without a RowPtr entry yet
	for k, r := range rows {
		lr := k
		if toLocal != nil {
			lr = int(toLocal[r])
		}
		if lr < next || lr >= m {
			panic(fmt.Sprintf("sparse: ExtractRowsInto row %d maps to %d outside [%d,%d)", r, lr, next, m))
		}
		for ; next <= lr; next++ {
			out.RowPtr[next] = ptr
		}
		ptr += emit(r, ptr)
	}
	for ; next <= m; next++ {
		out.RowPtr[next] = ptr
	}
}

// GrownCap grows old geometrically to cover need, bounding reallocation
// churn when per-batch extents creep upward across pool hits. Shared by the
// pooled-scratch consumers of this package's extraction kernels.
func GrownCap(old, need int) int {
	if c := 2 * old; c > need {
		return c
	}
	return need
}

// NNZRows returns the total number of stored entries across the given rows.
func (a *CSR) NNZRows(rows []int) int {
	total := 0
	for _, r := range rows {
		total += a.RowNNZ(r)
	}
	return total
}
