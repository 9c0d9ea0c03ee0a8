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

// ApplyDeltaContext routes an online graph mutation through the pool,
// leaving every worker's state equal to an unsharded
// Deployment.ApplyDelta of the same delta:
//
//  1. The router's graph absorbs the delta. graph.ApplyDelta validates it
//     before it mutates anything, so a malformed delta is refused here and
//     nothing anywhere changes.
//  2. A copy of the delta is appended to the delta log (the replay source
//     for stale and restarted workers) and the new version is published,
//     both under logMu; then it is delivered — a replay of the log to
//     every worker from its recorded version (deliver), where each worker
//     applies it with core.Deployment.ApplyDelta. One worker's success
//     commits the delivery. A pool that is unreachable after retries does
//     NOT fail the delta: the router's state is already committed, its
//     workers are marked down, and the logged delta reaches them via
//     replay when they come back — this is how a restarted worker rejoins.
//     A worker that *rejects* a delta (a permanent error) does fail the
//     call. The result still comes back beside the error — graph, version
//     and log are committed by then, and whoever caches answers above must
//     follow them.
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

	// A transient failure is an unreachable pool: the delta is committed
	// and logged, and the prober (or the next call) replays it when a worker
	// returns.
	if err := r.deliver(ctx); err != nil && !IsTransient(err) {
		return dr, err
	}
	return dr, nil
}
