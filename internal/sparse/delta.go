package sparse

import (
	"fmt"
	"slices"
)

// AppendEdges returns a new n×n binary adjacency, a pattern, containing every
// entry of the pattern a (whose dimension may be smaller: rows a.Rows..n-1
// start empty) plus the given undirected edges, stored in both directions.
// Self-loops and edges already present in a are dropped, and duplicates within
// the delta are deduplicated, mirroring FromEdges semantics — so the result is
// exactly FromEdges over the union edge set. The second return value lists,
// sorted ascending, the rows that actually gained entries (their degree
// changed); appended rows that received no edge are not listed. n must not
// exceed math.MaxInt32, and a must hold no values.
//
// The returned matrix shares no storage with a. Rebuilding it is an O(nnz)
// copy: the rows between two that gained entries move as one block.
func (a *CSR) AppendEdges(n int, src, dst []int) (*CSR, []int) {
	checkIDWidth(n)
	if a.Rows != a.Cols {
		panic("sparse: AppendEdges requires a square matrix")
	}
	if a.Val != nil {
		panic("sparse: AppendEdges requires a pattern (nil Val)")
	}
	if n < a.Rows {
		panic(fmt.Sprintf("sparse: AppendEdges shrinks %d rows to %d", a.Rows, n))
	}
	if len(src) != len(dst) {
		panic(fmt.Sprintf("sparse: %d sources for %d destinations", len(src), len(dst)))
	}
	adds := make(map[int][]int32)
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
		adds[u] = append(adds[u], int32(v))
	}
	for i := range src {
		addEntry(src[i], dst[i])
		addEntry(dst[i], src[i])
	}

	extra := 0
	dirty := make([]int, 0, len(adds))
	for r, cols := range adds {
		slices.Sort(cols)
		adds[r] = slices.Compact(cols)
		extra += len(adds[r])
		dirty = append(dirty, r)
	}
	slices.Sort(dirty)

	out := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), Col: make([]int32, a.NNZ()+extra)}
	ptr := func(i int) int { return a.RowPtr[min(i, a.Rows)] } // a's rows past a.Rows are empty
	// moveRows copies rows [lo, hi) of a, which gained nothing, shifted by the
	// entries inserted above them.
	shift := 0
	moveRows := func(lo, hi int) {
		copy(out.Col[ptr(lo)+shift:], a.Col[ptr(lo):ptr(hi)])
		for i := lo; i < hi; i++ {
			out.RowPtr[i] = ptr(i) + shift
		}
	}
	next := 0 // first row not yet written
	for _, r := range dirty {
		moveRows(next, r)
		// Merge two sorted, disjoint column lists.
		old, add := a.Col[ptr(r):ptr(r+1)], adds[r]
		out.RowPtr[r] = ptr(r) + shift
		row := out.Col[ptr(r)+shift:][:len(old)+len(add)]
		oi, ni := 0, 0
		for k := range row {
			if ni == len(add) || oi < len(old) && old[oi] < add[ni] {
				row[k] = old[oi]
				oi++
			} else {
				row[k] = add[ni]
				ni++
			}
		}
		shift += len(add)
		next = r + 1
	}
	moveRows(next, n+1)
	return out, dirty
}
