package shard

import (
	"repro/internal/graph"
)

// ApplyDelta commits an online graph mutation at the router and makes no
// transport call:
//
//  1. graph.Delta.Check validates the delta against the router's node
//     count, feature width and class count, so a malformed delta is refused
//     here and nothing anywhere changes; graph.Delta.Merge then grows the
//     router's adjacency. The router keeps no features or labels to append.
//  2. A copy of the delta is appended to the delta log and the new version
//     is published, both under logMu.
//
// Workers catch up by replay of that log, applying each entry with
// core.Deployment.ApplyDelta, so a worker's state equals an unsharded
// Deployment.ApplyDelta of the same deltas. A worker's next Infer answers
// stale and is replayed and retried in place; Probe and the start-up
// handshake replay a worker before they re-validate it. Whatever state the
// workers are in, a valid delta returns (result, nil).
//
// Must not run concurrently with Infer (the serving daemon holds its write
// lock around deltas, matching the unsharded backend's contract).
func (r *Router) ApplyDelta(d graph.Delta) (*graph.DeltaResult, error) {
	if err := d.Check(r.adj.Rows, r.model.FeatureDim, r.classes); err != nil {
		return nil, err
	}
	adj, dr := d.Merge(r.adj)
	if len(dr.Dirty) == 0 && dr.NumNew == 0 {
		// Ineffective delta (duplicates and self-loops only): no state
		// anywhere changes, no version bump, no log entry — matching
		// core.Deployment.ApplyDelta.
		return dr, nil
	}
	r.adj = adj

	// Log the delta and publish the new version under one critical section:
	// replay snapshots the version and ships the log up to it, so a version
	// must never be visible before the entry it implies is logged.
	r.logMu.Lock()
	version := r.version.Load() + 1
	r.deltaLog = append(r.deltaLog, &ShardDelta{Version: version, Delta: d.Clone()})
	r.expNodes = adj.Rows
	r.version.Store(version)
	r.logMu.Unlock()
	return dr, nil
}
