package shard

import (
	"context"

	"repro/internal/graph"
)

// ApplyDelta routes a graph mutation with no deadline or cancellation —
// ApplyDeltaContext with a background context.
func (r *Router) ApplyDelta(d graph.Delta) (*graph.DeltaResult, error) {
	return r.ApplyDeltaContext(context.Background(), d)
}

// ApplyDeltaContext routes an online graph mutation through the sharded
// system, leaving every worker's state equal to an unsharded
// Deployment.ApplyDelta of the same delta:
//
//  1. The router's graph absorbs the delta. graph.ApplyDelta validates it
//     before it mutates anything, so a malformed delta is refused here and
//     nothing anywhere changes.
//  2. New nodes are assigned owners: a node inherits the shard of the
//     first delta edge connecting it to an already-owned node; unattached
//     arrivals go to the least-loaded shard (lowest id on ties).
//  3. A copy of the delta is appended to the delta log (the replay source
//     for stale and restarted workers) and the new version is published,
//     both under logMu; then it is delivered — a replay of the log to
//     every endpoint of every shard from its recorded version (deliver),
//     where each worker applies it with core.Deployment.ApplyDelta. One
//     endpoint's success commits a shard's delivery. A shard that is
//     unreachable after retries does NOT fail the delta: the router's
//     state is already committed, its endpoints are marked down, and the
//     logged delta reaches them via replay when they come back — this is
//     how a restarted worker rejoins. A worker that *rejects* a delta (a
//     permanent error) does fail the call. The result still comes back
//     beside the error — graph, version and log are committed by then, and
//     whoever caches answers above must follow them.
//
// Must not run concurrently with Infer (the serving daemon holds its write
// lock around deltas, matching the unsharded backend's contract).
func (r *Router) ApplyDeltaContext(ctx context.Context, d graph.Delta) (*graph.DeltaResult, error) {
	dr, err := r.global.ApplyDelta(d)
	if err != nil {
		return nil, err
	}
	if len(dr.Dirty) == 0 && dr.NumNew == 0 {
		// Ineffective delta (duplicates and self-loops only): no state
		// anywhere changes, no version bump, no log entry — matching
		// core.Deployment.ApplyDelta.
		return dr, nil
	}
	r.assignNew(dr, d)

	// Log the delta and publish the new version under one critical section:
	// the background prober snapshots the version and replays the log up to
	// it, so a version must never be visible before the entry it implies is
	// logged.
	version := r.version.Load() + 1
	r.logMu.Lock()
	r.deltaLog = append(r.deltaLog, &ShardDelta{Version: version, Delta: d.Clone()})
	r.expNodes = r.global.N()
	r.version.Store(version)
	r.logMu.Unlock()

	var firstErr error
	for p := range r.groups {
		// A transient failure is an unreachable group: the delta is committed
		// and logged, and the prober (or the next call) replays it when a
		// worker returns.
		if err := r.deliver(ctx, p); err != nil && !IsTransient(err) && firstErr == nil {
			firstErr = err
		}
	}
	return dr, firstErr
}

// assignNew picks an owner for every appended node and extends the owner
// map. Processing ids in ascending order makes the policy deterministic: a
// new node connected (by a delta edge) to a node whose owner is already
// known — an old node, or a lower-id new node — joins that shard; otherwise
// it goes to the shard owning the fewest nodes. One pass over the edge list
// collects each new node's earliest lower-id neighbor, so the whole
// assignment is O(|edges| + NumNew) — it runs under the serving write lock.
func (r *Router) assignNew(dr *graph.DeltaResult, d graph.Delta) {
	if dr.NumNew == 0 {
		return
	}
	attach := make([]int, dr.NumNew) // earliest delta neighbor with a smaller id; −1 if none
	for i := range attach {
		attach[i] = -1
	}
	note := func(v, w int) {
		if v >= dr.FirstNew && w < v && attach[v-dr.FirstNew] < 0 {
			attach[v-dr.FirstNew] = w
		}
	}
	for i := range d.Src {
		note(d.Src[i], d.Dst[i])
		note(d.Dst[i], d.Src[i])
	}
	for v := dr.FirstNew; v < dr.FirstNew+dr.NumNew; v++ {
		p := -1
		if w := attach[v-dr.FirstNew]; w >= 0 {
			p = int(r.owner[w]) // already assigned: w < v and ids assign in order
		}
		if p < 0 {
			p = 0
			for q := 1; q < len(r.ownedCount); q++ {
				if r.ownedCount[q] < r.ownedCount[p] {
					p = q
				}
			}
		}
		r.owner = append(r.owner, int32(p))
		r.ownedCount[p]++
	}
}
