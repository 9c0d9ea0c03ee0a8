package sparse

import (
	"fmt"
	"sort"
)

// AppendEdges returns a new n×n binary adjacency containing every entry of a
// (whose dimension may be smaller: rows a.Rows..n-1 start empty) plus the
// given undirected edges, stored in both directions. Self-loops and edges
// already present in a are dropped, and duplicates within the delta are
// deduplicated, mirroring FromEdges semantics — so the result is exactly
// FromEdges over the union edge set. The second return value lists, sorted
// ascending, the rows that actually gained entries (their degree changed);
// appended rows that received no edge are not listed.
//
// The returned matrix shares no storage with a. Rebuilding the CSR arrays is
// an O(nnz) copy, but values are only created for inserted entries.
func (a *CSR) AppendEdges(n int, src, dst []int) (*CSR, []int) {
	if a.Rows != a.Cols {
		panic("sparse: AppendEdges requires a square matrix")
	}
	if n < a.Rows {
		panic(fmt.Sprintf("sparse: AppendEdges shrinks %d rows to %d", a.Rows, n))
	}
	if len(src) != len(dst) {
		panic(fmt.Sprintf("sparse: %d sources for %d destinations", len(src), len(dst)))
	}
	adds := make(map[int][]int)
	addEntry := func(u, v int) {
		if u == v {
			return
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("sparse: edge (%d,%d) outside [0,%d)", u, v, n))
		}
		if u < a.Rows && a.At(u, v) != 0 {
			return // already present
		}
		adds[u] = append(adds[u], v)
	}
	for i := range src {
		addEntry(src[i], dst[i])
		addEntry(dst[i], src[i])
	}

	extra := 0
	dirty := make([]int, 0, len(adds))
	for r, cols := range adds {
		sort.Ints(cols)
		uniq := cols[:0]
		for i, c := range cols {
			if i == 0 || c != cols[i-1] {
				uniq = append(uniq, c)
			}
		}
		adds[r] = uniq
		extra += len(uniq)
		dirty = append(dirty, r)
	}
	sort.Ints(dirty)

	out := &CSR{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int, n+1),
		Col:    make([]int, a.NNZ()+extra),
		Val:    make([]float64, a.NNZ()+extra),
	}
	ptr := 0
	for i := 0; i < n; i++ {
		out.RowPtr[i] = ptr
		var oldCols []int
		var oldVals []float64
		if i < a.Rows {
			oldCols, oldVals = a.RowIndices(i), a.RowValues(i)
		}
		newCols := adds[i]
		if len(newCols) == 0 {
			copy(out.Col[ptr:], oldCols)
			copy(out.Val[ptr:], oldVals)
			ptr += len(oldCols)
			continue
		}
		// Merge two sorted, disjoint column lists; inserted entries are 1.
		oi, ni := 0, 0
		for oi < len(oldCols) || ni < len(newCols) {
			if ni == len(newCols) || (oi < len(oldCols) && oldCols[oi] < newCols[ni]) {
				out.Col[ptr] = oldCols[oi]
				out.Val[ptr] = oldVals[oi]
				oi++
			} else {
				out.Col[ptr] = newCols[ni]
				out.Val[ptr] = 1
				ni++
			}
			ptr++
		}
	}
	out.RowPtr[n] = ptr
	return out, dirty
}
