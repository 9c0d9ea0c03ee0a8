package graph

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/sparse"
)

// Delta is an online mutation of a serving graph: nodes appended at the end
// of the id space plus undirected edges among old and new nodes. It is the
// wire-level unit internal/serve's POST /nodes and POST /edges endpoints
// translate into, and the input of the deployment's incremental refresh.
type Delta struct {
	// Features holds one row per appended node (nil or 0×f appends none).
	// New nodes receive ids N, N+1, ... in row order, where N is the
	// pre-delta node count.
	Features *mat.Matrix
	// Labels holds one class id per appended node. Serving-time arrivals
	// whose label is unknown use 0; labels only feed evaluation, never
	// inference.
	Labels []int
	// Src/Dst list undirected edges; endpoints may name old nodes or new
	// nodes (ids ≥ N). Self-loops and edges already present are dropped,
	// mirroring sparse.FromEdges.
	Src, Dst []int
}

// Clone returns a deep copy sharing no storage with d, so one delta can be
// applied to several graphs (e.g. a sharded and an unsharded backend under
// comparison) without them coupling through the feature matrix.
func (d Delta) Clone() Delta {
	out := Delta{
		Labels: append([]int(nil), d.Labels...),
		Src:    append([]int(nil), d.Src...),
		Dst:    append([]int(nil), d.Dst...),
	}
	if d.Features != nil {
		out.Features = d.Features.Clone()
	}
	return out
}

// ValidationError marks a delta rejected for being malformed — wrong
// feature width, label out of range, edge endpoint outside the (grown) id
// space. It lets callers (the HTTP layer) distinguish a client's bad
// request from an internal failure: ApplyDelta validates before mutating,
// so a ValidationError also guarantees the graph is unchanged.
type ValidationError struct{ msg string }

// Error returns the validation message.
func (e *ValidationError) Error() string { return e.msg }

func validationf(format string, args ...any) error {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// DeltaResult reports what ApplyDelta changed, in the shape the incremental
// refresh paths consume.
type DeltaResult struct {
	// FirstNew is the id of the first appended node (the pre-delta N);
	// appended ids are FirstNew..FirstNew+NumNew-1.
	FirstNew, NumNew int
	// Dirty lists, sorted ascending, every node whose adjacency row or
	// degree changed: endpoints of inserted edges plus every appended node.
	Dirty []int
}

// Check validates d against a graph of n nodes with f feature columns and
// classes classes: one feature row of width f and one label in
// [0, classes) per appended node, and every edge endpoint inside the grown
// id space [0, n+k). It returns a *ValidationError for a malformed delta.
func (d Delta) Check(n, f, classes int) error {
	k := d.newNodes()
	if k > 0 && d.Features.Cols != f {
		return validationf("graph: delta feature dim %d != graph %d", d.Features.Cols, f)
	}
	if len(d.Labels) != k {
		return validationf("graph: %d delta labels for %d new nodes", len(d.Labels), k)
	}
	for i, y := range d.Labels {
		if y < 0 || y >= classes {
			return validationf("graph: delta label %d of new node %d outside [0,%d)", y, i, classes)
		}
	}
	if len(d.Src) != len(d.Dst) {
		return validationf("graph: %d delta sources for %d destinations", len(d.Src), len(d.Dst))
	}
	for i := range d.Src {
		if u, v := d.Src[i], d.Dst[i]; u < 0 || u >= n+k || v < 0 || v >= n+k {
			return validationf("graph: delta edge (%d,%d) outside [0,%d)", u, v, n+k)
		}
	}
	return nil
}

// newNodes is the number of nodes d appends.
func (d Delta) newNodes() int {
	if d.Features == nil {
		return 0
	}
	return d.Features.Rows
}

// Merge returns adj grown by d's new nodes and edges, and which rows
// changed. d must have passed Check against adj's node count. adj is left
// untouched (sparse.AppendEdges builds a fresh CSR), so a caller may merge
// into an adjacency it shares with another graph.
func (d Delta) Merge(adj *sparse.CSR) (*sparse.CSR, *DeltaResult) {
	n, k := adj.Rows, d.newNodes()
	merged, dirtyRows := adj.AppendEdges(n+k, d.Src, d.Dst)

	// Dirty = edge-dirty rows ∪ all appended nodes. dirtyRows is sorted and
	// new-node ids all sit above the old range, so a split-merge keeps order.
	res := &DeltaResult{FirstNew: n, NumNew: k}
	res.Dirty = make([]int, 0, len(dirtyRows)+k)
	i := 0
	for ; i < len(dirtyRows) && dirtyRows[i] < n; i++ {
		res.Dirty = append(res.Dirty, dirtyRows[i])
	}
	for v := n; v < n+k; v++ {
		res.Dirty = append(res.Dirty, v)
	}
	return merged, res
}

// ApplyDelta validates and applies d to the graph in place: Check, then
// Merge into the adjacency, then features and labels are appended
// (mat.Extend: a full copy once per n/64 appended nodes). It returns which
// rows changed so cached derived state (normalized adjacency, stationary
// sums) can be refreshed incrementally. The caller owns the concurrency contract:
// like Deployment.Refresh, ApplyDelta must not run concurrently with
// readers of the graph.
func (g *Graph) ApplyDelta(d Delta) (*DeltaResult, error) {
	if err := d.Check(g.N(), g.F(), g.NumClasses); err != nil {
		return nil, err
	}
	adj, res := d.Merge(g.Adj)
	g.Adj = adj
	if k := res.NumNew; k > 0 {
		n := res.FirstNew
		g.Features.AppendRows(d.Features)
		g.Labels = mat.Extend(g.Labels, k)
		copy(g.Labels[n:], d.Labels)
	}
	return res, nil
}
