// Package sparse implements compressed-sparse-row matrices and the graph
// algebra used by Scalable GNNs: adjacency construction, self-loops, the
// γ-normalization family Â = D̃^{γ−1} Ã D̃^{−γ} of the paper's Eq. (1), and
// (row-subset) sparse×dense products with exact multiply-accumulate
// accounting.
package sparse

import (
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/mat"
	"repro/internal/par"
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

// Transpose returns aᵀ.
func (a *CSR) Transpose() *CSR {
	counts := make([]int, a.Cols+1)
	for _, c := range a.Col {
		counts[c+1]++
	}
	for i := 0; i < a.Cols; i++ {
		counts[i+1] += counts[i]
	}
	out := &CSR{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: counts,
		Col:    make([]int, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	next := append([]int(nil), counts[:a.Cols]...)
	for i := 0; i < a.Rows; i++ {
		cols := a.RowIndices(i)
		vals := a.RowValues(i)
		for k, c := range cols {
			p := next[c]
			out.Col[p] = i
			out.Val[p] = vals[k]
			next[c]++
		}
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

// MulDense returns a·x (SpMM), parallelized across nnz-balanced row blocks:
// graph adjacencies have power-law degrees, so an even row split would
// leave most workers idle behind the hub-heavy chunk.
func (a *CSR) MulDense(x *mat.Matrix) *mat.Matrix {
	if x.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: MulDense inner dims %d != %d", a.Cols, x.Rows))
	}
	out := mat.New(a.Rows, x.Cols)
	par.ForWeighted(a.Rows, a.NNZ()*x.Cols, a.NNZ(), a.RowNNZ, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			gatherRow(out.Row(i), a.RowIndices(i), a.RowValues(i), x.Data, x.Cols, 0)
		}
	})
	return out
}

// MulDenseRows computes out[r] = (a·x)[r] for each r in rows, leaving other
// rows of out untouched, and returns the number of multiply-accumulate
// pairs processed (nnz over the selected rows × feature width). out must be
// a.Rows×x.Cols and must not alias x. The selected rows are processed in
// parallel over nnz-balanced chunks, so rows must not contain duplicates
// (every caller passes deduplicated supporting sets).
func (a *CSR) MulDenseRows(rows []int, x, out *mat.Matrix) int {
	if out.Rows != a.Rows {
		panic("sparse: MulDenseRows out shape mismatch")
	}
	return MulRowsInto(a, rows, rows, a.Val, x.Data, x.Cols, 1, out.Data)
}

// MulDenseRowsCompact computes out[k] = (a·x)[rows[k]] for k = 0..len(rows)
// and returns the multiply-accumulate count, like MulDenseRows but with the
// output gathered into compact row order: out is len(rows)×x.Cols instead of
// a.Rows×x.Cols, so callers propagating over a supporting set can hold
// |S|-height buffers rather than full-graph ones. The selected rows are
// processed in parallel over nnz-balanced chunks; rows must not contain
// duplicates. out must not alias x.
//
// Remap precondition: output row k is whatever rows[k] is, so when the
// result feeds compacted-coordinate consumers the caller must pass rows in
// exactly the order the local universe was indexed in — for a
// graph.IndexSet universe that means the same sorted set, making compact
// row k the node with local id k.
func (a *CSR) MulDenseRowsCompact(rows []int, x, out *mat.Matrix) int {
	if out.Rows != len(rows) {
		panic("sparse: MulDenseRowsCompact out shape mismatch")
	}
	return MulRowsInto(a, rows, nil, a.Val, x.Data, x.Cols, 1, out.Data)
}

// MulRowsInto is the row-subset SpMM of every precision tier, the one entry
// point the engine calls and the MulDenseRows* forms wrap:
// out[outRows[k]·f : outRows[k]·f+f] = (a·x)[rows[k]], other rows of out
// untouched, returning the multiply-accumulate count nnz(rows)·f. vals stands
// in for a.Val at the operands' element type (aligned with it, so one global
// lowering of a matrix serves every row subset), x is a.Cols×f row-major and
// out holds f columns per row, both flat. The element types pick the kernel:
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
// indexed in (MulDenseRowsCompact spells the precondition out).
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
	switch vals := any(vals).(type) {
	case []int8:
		return mulRows8Blocked(a, len(rows), rows, outRows, vals, any(x).([]int8), f, deq, out, par.ColBlock(f, 1))
	case []O:
		return mulRowsBlocked(a, len(rows), rows, outRows, vals, any(x).([]O), f, out, par.ColBlock(f, int(unsafe.Sizeof(out[0]))))
	}
	panic("sparse: MulRowsInto float operands and output must share one element type")
}

// rowAt reads entry k of a kernel driver's row list, where a nil list stands
// for the identity 0, 1, 2, ….
func rowAt(list []int, k int) int {
	if list == nil {
		return k
	}
	return list[k]
}

// mulRowsBlocked is the cache-blocked kernel behind MulRowsInto at the f64
// and f32 tiers. The dense columns are walked in blocks of bw so each pass over a chunk's CSR
// rows touches only a bw-wide panel of x, keeping the gathered source rows
// L1/L2-resident even when the feature width is large. Blocking is
// bit-identity-preserving by construction: for every output element the
// accumulation order over the row's neighbors is exactly the row-serial
// kernel's (the block split varies j, never the neighbor order), which
// TestKernelPropTiledF64BitIdentical pins across hostile block widths.
//
// The product covers n rows: row rows[k] of a into row outRows[k] of out, a
// nil list being the identity (rowAt).
func mulRowsBlocked[T float64 | float32](a *CSR, n int, rows, outRows []int, vals, x []T, f int, out []T, bw int) int {
	nnz := nnzOf(a, n, rows)
	if bw <= 0 || bw > f {
		bw = f
	}
	par.ForWeighted(n, nnz*f, nnz,
		func(k int) int { return a.RowNNZ(rowAt(rows, k)) },
		func(lo, hi int) {
			for jb := 0; jb < f; jb += bw {
				je := min(jb+bw, f)
				for k := lo; k < hi; k++ {
					o, i := rowAt(outRows, k), rowAt(rows, k)
					dst := out[o*f+jb : o*f+je]
					clear(dst)
					gatherRow(dst, a.RowIndices(i), vals[a.RowPtr[i]:a.RowPtr[i+1]], x, f, jb)
				}
			}
		})
	return nnz * f
}

// nnzOf counts the stored entries of a kernel driver's n rows of a.
func nnzOf(a *CSR, n int, rows []int) int {
	if rows == nil {
		return a.RowPtr[n]
	}
	return a.NNZRows(rows)
}

// gatherRow accumulates columns [jb, jb+len(dst)) of Σₖ vals[k]·x[cols[k]] —
// one row of a sparse×dense product, given as its entries — into dst: the one
// neighbor gather of the f64 and f32 tiers, whether the row comes from a stored
// CSR or was just emitted by the Normalized operator. Neighbors are taken four at
// a time so four independent source-row loads are in flight instead of one
// dependent load per neighbor (the gather is latency-bound once x outgrows
// L2), but every element still adds its terms one by one in ascending column
// order — t += v0·s0[j], then v1·s1[j], … — so the result is bit-identical
// to the one-neighbor-at-a-time loop, blocked or not.
func gatherRow[T float64 | float32](dst []T, cols []int, vals, x []T, f, jb int) {
	vals = vals[:len(cols)]
	n := len(dst)
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		v0, v1, v2, v3 := vals[k], vals[k+1], vals[k+2], vals[k+3]
		s0 := x[cols[k]*f+jb:][:n]
		s1 := x[cols[k+1]*f+jb:][:n]
		s2 := x[cols[k+2]*f+jb:][:n]
		s3 := x[cols[k+3]*f+jb:][:n]
		for j := range dst {
			t := dst[j]
			t += v0 * s0[j]
			t += v1 * s1[j]
			t += v2 * s2[j]
			t += v3 * s3[j]
			dst[j] = t
		}
	}
	for ; k < len(cols); k++ {
		v := vals[k]
		for j, sv := range x[cols[k]*f+jb:][:n] {
			dst[j] += v * sv
		}
	}
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

// ExtractRowsTruncated builds the sub-matrix of a induced on a local node
// universe: the result is an m×m CSR whose row toLocal[r], for each r in
// rows, holds a's row r restricted to the columns c with toLocal[c] ≥ 0
// (out-of-universe neighbors are silently dropped); rows of the output not
// named by rows are empty. It is the boundary-tolerant sibling of
// ExtractRowsInto: sharded serving uses it to cut a shard's halo subgraph
// out of the global adjacency, where the outermost ghost ring necessarily
// has neighbors outside the universe. rows must be sorted ascending and
// toLocal must be a monotone partial map into [0,m) (graph.IndexSet over the
// sorted universe), which keeps the remapped columns of each row sorted.
func (a *CSR) ExtractRowsTruncated(rows []int, toLocal []int32, m int) *CSR {
	out := &CSR{Rows: m, Cols: m, RowPtr: make([]int, m+1)}
	next := 0 // first local row without a RowPtr entry yet
	for _, r := range rows {
		lr := int(toLocal[r])
		if lr < next || lr >= m {
			panic(fmt.Sprintf("sparse: ExtractRowsTruncated row %d maps to %d outside [%d,%d)", r, lr, next, m))
		}
		for ; next <= lr; next++ {
			out.RowPtr[next] = len(out.Col)
		}
		cols := a.RowIndices(r)
		vals := a.RowValues(r)
		for k, c := range cols {
			if lc := toLocal[c]; lc >= 0 {
				out.Col = append(out.Col, int(lc))
				out.Val = append(out.Val, vals[k])
			}
		}
	}
	for ; next <= m; next++ {
		out.RowPtr[next] = len(out.Col)
	}
	return out
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
