// Package sparse implements compressed-sparse-row matrices and the graph
// algebra used by Scalable GNNs: adjacency construction, self-loops, and the
// γ-normalization family Â = D̃^{γ−1} Ã D̃^{−γ} of the paper's Eq. (1), held
// as an operator (Normalized) that training, the baselines and serving all
// multiply by without storing a row of Â. Every sparse×dense product runs one
// row driver per accumulator type (rows.go), with exact multiply-accumulate
// accounting. NormalizedAdjacency, the stored Â, and the CSR product forms
// over it remain as the tests' reference and for the benchmark ladder.
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/mat"
)

// CSR is a sparse matrix in compressed sparse row format. Column indices
// within each row are sorted ascending and unique.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // length Rows+1
	Col        []int // length NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Col) }

// Clone returns a deep copy sharing no storage with a.
func (a *CSR) Clone() *CSR {
	return &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		Col:    append([]int(nil), a.Col...),
		Val:    append([]float64(nil), a.Val...),
	}
}

// RowNNZ returns the number of stored entries in row i.
func (a *CSR) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// RowIndices returns the column indices of row i (a view, do not mutate).
func (a *CSR) RowIndices(i int) []int { return a.Col[a.RowPtr[i]:a.RowPtr[i+1]] }

// RowValues returns the values of row i (a view, do not mutate).
func (a *CSR) RowValues(i int) []float64 { return a.Val[a.RowPtr[i]:a.RowPtr[i+1]] }

// At returns element (i, j) by binary search over row i.
func (a *CSR) At(i, j int) float64 {
	cols := a.RowIndices(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return a.RowValues(i)[k]
	}
	return 0
}

// FromEdges builds an n×n binary adjacency matrix from the edge list.
// Duplicate edges and self-loops in the input are dropped; with
// undirected=true each edge is stored in both directions.
func FromEdges(n int, src, dst []int, undirected bool) *CSR {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("sparse: %d sources for %d destinations", len(src), len(dst)))
	}
	adj := make([][]int, n)
	addEdge := func(u, v int) {
		if u == v {
			return
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("sparse: edge (%d,%d) outside [0,%d)", u, v, n))
		}
		adj[u] = append(adj[u], v)
	}
	for i := range src {
		addEdge(src[i], dst[i])
		if undirected {
			addEdge(dst[i], src[i])
		}
	}
	return fromAdjLists(n, n, adj, nil)
}

// fromAdjLists converts per-row column lists (with optional parallel value
// lists; nil means all-ones) to CSR, sorting and deduplicating columns.
// When deduplicating with values, duplicates are summed.
func fromAdjLists(rows, cols int, adj [][]int, vals [][]float64) *CSR {
	out := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i, list := range adj {
		if len(list) == 0 {
			out.RowPtr[i+1] = out.RowPtr[i]
			continue
		}
		type cv struct {
			c int
			v float64
		}
		pairs := make([]cv, len(list))
		for k, c := range list {
			v := 1.0
			if vals != nil {
				v = vals[i][k]
			}
			pairs[k] = cv{c, v}
		}
		sort.Slice(pairs, func(x, y int) bool { return pairs[x].c < pairs[y].c })
		for k := 0; k < len(pairs); k++ {
			if k > 0 && pairs[k].c == pairs[k-1].c {
				continue // dedupe; binary adjacency keeps 1
			}
			out.Col = append(out.Col, pairs[k].c)
			out.Val = append(out.Val, pairs[k].v)
		}
		out.RowPtr[i+1] = len(out.Col)
	}
	return out
}

// AddSelfLoops returns a copy of a with value 1 on every diagonal entry
// (existing diagonal values are overwritten with 1). Requires a square matrix.
func (a *CSR) AddSelfLoops() *CSR {
	if a.Rows != a.Cols {
		panic("sparse: AddSelfLoops requires a square matrix")
	}
	adj := make([][]int, a.Rows)
	vals := make([][]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		cols := a.RowIndices(i)
		vs := a.RowValues(i)
		adj[i] = make([]int, 0, len(cols)+1)
		vals[i] = make([]float64, 0, len(cols)+1)
		seenSelf := false
		for k, c := range cols {
			if c == i {
				adj[i] = append(adj[i], c)
				vals[i] = append(vals[i], 1)
				seenSelf = true
			} else {
				adj[i] = append(adj[i], c)
				vals[i] = append(vals[i], vs[k])
			}
		}
		if !seenSelf {
			adj[i] = append(adj[i], i)
			vals[i] = append(vals[i], 1)
		}
	}
	return fromAdjLists(a.Rows, a.Cols, adj, vals)
}

// Degrees returns the per-row sum of values (for a binary adjacency this is
// the out-degree).
func (a *CSR) Degrees() []float64 {
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var s float64
		for _, v := range a.RowValues(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// ToDense materializes the matrix (for tests on small inputs).
func (a *CSR) ToDense() *mat.Matrix {
	out := mat.New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		cols := a.RowIndices(i)
		vals := a.RowValues(i)
		for k, c := range cols {
			out.Set(i, c, vals[k])
		}
	}
	return out
}

// MulDenseRows computes out[r] = (a·x)[r] for each r in rows, leaving other
// rows of out untouched, and returns the multiply-accumulate count: MulRowsInto
// at float64 with the output scattered to a.Rows×x.Cols. rows must hold no
// duplicates and out must not alias x.
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
// lowering of a matrix serves every row subset), x is a.Cols×f row-major and
// out holds f columns per row, both flat. The element types pick the driver:
//
//   - float64 or float32 operands accumulate at that type into an out of the
//     same type (anything else panics), every element adding its neighbors'
//     terms in ascending column order — one fixed order per tier, bit-stable
//     under blocking, batching and sharding; deq is unused;
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
	case len(vals) != a.NNZ():
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
// holds a's row r with every column index c remapped to toLocal[c]; rows of
// out not named by `rows` are empty.
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
		cols, vals := a.RowIndices(r), a.RowValues(r)
		for k, c := range cols {
			lc := toLocal[c]
			if lc < 0 {
				panic(fmt.Sprintf("sparse: ExtractRowsInto neighbor %d of row %d outside the universe", c, r))
			}
			out.Col[at+k] = int(lc)
			out.Val[at+k] = vals[k]
		}
		return len(cols)
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
	if cap(out.Col) < nnz {
		c := GrownCap(cap(out.Col), nnz)
		out.Col = make([]int, nnz, c)
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
