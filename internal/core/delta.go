package core

import "repro/internal/graph"

// ApplyDelta appends nodes and/or edges to the serving graph and
// incrementally refreshes the deployment's cached state: the normalized
// adjacency and the stationary weighted sum are recomputed only for rows
// whose neighborhood changed, instead of the O(n·f) + O(nnz) from-scratch
// work Refresh does. The refreshed state — and therefore every subsequent
// prediction and MAC count — is bit-identical to calling Refresh() on the
// merged graph (see TestDeltaEquivalence).
//
// Like Refresh, ApplyDelta must not run concurrently with Infer; the
// internal/serve daemon holds its write lock around it while requests hold
// read locks.
func (d *Deployment) ApplyDelta(delta graph.Delta) (*graph.DeltaResult, error) {
	dr, err := d.Graph.ApplyDelta(delta)
	if err != nil {
		return nil, err
	}
	if len(dr.Dirty) == 0 && dr.NumNew == 0 {
		// A no-op delta (duplicate edges, self-loops) changes nothing:
		// cached answers stay valid and the graph version does not move.
		return dr, nil
	}
	d.version.Add(1)
	// Stationary first: it owns the looped-degree vector the adjacency
	// patch reads its D̃^{γ−1}/D̃^{−γ} factors from.
	d.stationary.Update(d.Graph.Adj, d.Graph.Features, dr.Dirty)

	// Value-dirty rows of Â: the dirty rows themselves plus every neighbor
	// of a degree-changed node (all dirty nodes changed degree — an inserted
	// entry is +1 on both endpoints, and appended nodes are new). Adj is
	// rebound to the grown graph and only their degree factors are
	// recomputed — O(|valDirty|), nothing is copied. The active tier then
	// re-derives its dense operand (the feature matrix may have grown), and
	// each of its layers extends to the appended nodes and drops the rows
	// the patch made stale: those of a depth-h layer within h−1 hops of
	// valDirty (valDirty itself for X^(1)), and every hub row.
	valDirty := graph.Ball(d.Graph.Adj, dr.Dirty, 1)
	d.Adj.Patch(d.Graph.Adj, d.stationary.LoopedDeg, valDirty)
	d.eng.patched(valDirty)
	return dr, nil
}
