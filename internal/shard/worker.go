package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
)

// Worker is one pool member's serving state behind the Transport boundary:
// a core.Deployment over its own copy of the whole graph. It is the
// process-side half of distributed sharding — the router keeps the delta
// log, the worker holds the bulky hot-path state (features, the adjacency with its degree factors, the engine's
// layers and propagation scratch). A worker is built either in the router's
// process (LocalTransport) or by a separate `naiserve -shard-worker`
// process serving the wire protocol (HTTPTransport).
//
// State changes arrive as versioned ShardDeltas, and the worker's graph
// version and tier are its deployment's: version 1 is the bootstrapped
// state, each applied delta bumps it by one. Application is
// idempotent by version — replaying an old delta is a no-op, a gap is a
// *StaleError the router heals by replaying its log — which is what lets a
// restarted worker (back at version 1) rejoin a long-running router.
//
// Concurrency: Infer calls run under a read lock (any number concurrently,
// matching core.Deployment), ApplyDelta under the write lock.
type Worker struct {
	mu sync.RWMutex
	// id labels the worker in its errors and its nai_shard_id gauge; routing
	// never reads it.
	id int
	// globalN is the graph's node count at bootstrap (handshake check).
	globalN int
	dep     *core.Deployment
	// draining flags a worker being rolled out of the fleet: the HTTP
	// handler refuses new RPCs with 503 (a transient error the router fails
	// over past) while in-flight ones finish, so a SIGTERM'd worker process
	// exits without dropping a request (see naiserve -drain-timeout).
	draining atomic.Bool
}

// NewWorker bootstraps a worker labelled id: a deployment over a clone of g
// at cfg.Precision, so a worker process launched with the router's model and
// graph holds bit-identical state without any bulk state transfer. g itself
// is not retained. The worker starts at graph version 1, matching a fresh
// router.
func NewWorker(m *core.Model, g *graph.Graph, cfg Config, id int) (*Worker, error) {
	if err := cfg.check(m, g); err != nil {
		return nil, err
	}
	dep, err := core.NewDeployment(m, g.Clone())
	if err != nil {
		return nil, err
	}
	dep.SetPrecision(cfg.Precision)
	return &Worker{id: id, globalN: g.N(), dep: dep}, nil
}

// Infer answers one batch — InferContext with a background context.
func (w *Worker) Infer(req *InferRequest) (*core.Result, error) {
	return w.InferContext(context.Background(), req)
}

// InferContext answers one batch. The context carries an optional obs.Trace
// the engine records its spans into (an in-process worker shares the
// router's trace; a remote worker's HTTP handler starts its own under the
// router's id). A version mismatch — the worker's graph is behind
// (restarted worker) or ahead of the requested version — returns a
// *StaleError instead of an answer from the wrong graph; the router replays
// its delta log and retries.
func (w *Worker) InferContext(ctx context.Context, req *InferRequest) (*core.Result, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if v := w.dep.Version(); req.Version != 0 && v != req.Version {
		return nil, &StaleError{Shard: w.id, Have: v, Want: req.Version}
	}
	if p := w.dep.Precision(); req.Precision != p {
		// The handshake rejects tier mismatches up front; this catches a
		// request racing a reconfiguration (it cannot be healed by replay).
		return nil, &precisionError{shard: w.id, have: p, want: req.Precision}
	}
	return w.dep.InferContext(ctx, req.Targets, req.Opt)
}

// ApplyDelta applies one versioned delta with core.Deployment.ApplyDelta,
// so the worker's state equals the unsharded engine's after the same
// deltas. Idempotent by version: an already-applied version is a successful
// no-op, a version gap is a *StaleError carrying the worker's current
// version so the router can replay from there. A malformed delta fails
// graph.ApplyDelta's validation (a *graph.ValidationError, HTTP 400) before
// anything mutates, leaving the version where it was. The router logs only
// deltas that changed its graph, so one that leaves the deployment's
// version short of sd.Version found a graph diverged from the router's: a
// permanent error, and the router takes the worker down.
func (w *Worker) ApplyDelta(sd *ShardDelta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch v := w.dep.Version(); {
	case sd.Version <= v:
		return nil // replay of an already-applied delta
	case sd.Version != v+1:
		return &StaleError{Shard: w.id, Have: v, Want: sd.Version - 1}
	}
	if _, err := w.dep.ApplyDelta(sd.Delta); err != nil {
		return fmt.Errorf("shard %d: %w", w.id, err)
	}
	if v := w.dep.Version(); v != sd.Version {
		return fmt.Errorf("shard %d: delta for version %d left the graph at %d: diverged from the router's", w.id, sd.Version, v)
	}
	return nil
}

// StartDrain takes the worker out of rotation for graceful replacement:
// every subsequent wire RPC — including health probes, so the router stops
// routing here — is refused with 503 while requests already past the
// handler's drain check run to completion. Irreversible by design: a
// draining process exits; its replacement bootstraps fresh and rejoins via
// delta-log replay.
func (w *Worker) StartDrain() { w.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (w *Worker) Draining() bool { return w.draining.Load() }

// Health reports the worker's serving state for the router's probes.
func (w *Worker) Health() HealthInfo {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return HealthInfo{
		Nodes:        w.dep.Graph.N(),
		GlobalNodes:  w.globalN,
		Version:      w.dep.Version(),
		ScratchBytes: w.dep.ScratchBytes(),
		Hop1:         w.dep.Hop1Stats(),
		Precision:    w.dep.Precision(),
	}
}

// ShardDelta is one graph delta as the router's log stores it and replays
// it to every worker: the router's graph version it produces and the delta
// itself, in global ids. It is the unit the wire codec serializes; every
// worker gets the same one.
type ShardDelta struct {
	// Version is the router graph version this delta produces; the worker
	// applies it only at Version−1 (idempotent replay otherwise).
	Version uint64
	// Delta is the mutation, already validated and applied by the router.
	Delta graph.Delta
}
