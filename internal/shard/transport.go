package shard

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
)

// Transport is the router↔worker boundary: every call the Router makes
// against a worker's serving state goes through one of these three methods,
// so the same routing, delta-log and failover logic serves workers
// living in the router's address space (LocalTransport) or in separate
// processes (HTTPTransport). It is flat: shardID is a worker's index,
// 0..Config.Shards−1. Implementations must be safe for concurrent callers —
// concurrent requests reach the same worker and the health prober runs
// beside them.
//
// Error contract: a *StaleError means the worker's graph version is behind
// the router's (the router replays its delta log and retries); an error for
// which IsTransient reports true is a delivery failure worth retrying
// (connection refused, timeout); anything else is a permanent failure of
// the call itself. Calls must respect ctx — a dead worker turns into a
// deadline error, never a hang.
type Transport interface {
	// Infer runs one request's batch on a worker and returns its Result.
	Infer(ctx context.Context, shardID int, req *InferRequest) (*core.Result, error)
	// ApplyDelta applies one versioned delta. Deltas are
	// idempotent by version: re-delivering an already-applied version is a
	// successful no-op, which is what makes the router's replay safe.
	ApplyDelta(ctx context.Context, shardID int, sd *ShardDelta) error
	// Health probes one worker's liveness and reports its serving state.
	Health(ctx context.Context, shardID int) (HealthInfo, error)
	// Close releases transport resources (idle connections, local workers).
	Close() error
}

// InferRequest is one worker inference call as it crosses the transport:
// the targets, the operating point, and the router's graph version the
// answer must be computed against.
type InferRequest struct {
	// Version is the router's graph version; a worker whose state is behind
	// (or ahead of) it answers with a *StaleError instead of serving from
	// the wrong graph.
	Version uint64
	// Targets are node ids, the same ids the router serves.
	Targets []int
	// Opt is the operating point, forwarded verbatim.
	Opt core.InferenceOptions
	// Precision is the tier the router serves at; a worker bootstrapped at a
	// different tier answers with a precision conflict (HTTP 409) rather than
	// silently mixing kernels across the fleet.
	Precision kernel.Precision
	// TraceID is the router-side trace id (0 = untraced). The wire codec
	// carries it so the worker records its engine spans under the same id
	// and ships them back with the result, stitching the worker half of the
	// request into the router's trace.
	TraceID uint64
}

// HealthInfo is one worker's health-probe report.
type HealthInfo struct {
	// Nodes is the worker graph's node count at its current version.
	Nodes int
	// GlobalNodes is the node count the worker bootstrapped from, checked
	// at handshake (version checks guard post-delta drift).
	GlobalNodes int
	// Version is the worker's graph version (1 = as bootstrapped, +1 per
	// applied shard delta).
	Version uint64
	// ScratchBytes is the worker deployment's retained pooled-scratch
	// footprint, summed into the router's /stats gauge.
	ScratchBytes int
	// Hop1 is the worker deployment's layer counters, summed into the
	// router's nai_hop1_* series.
	Hop1 core.Hop1Stats
	// Precision is the tier the worker's deployment serves at; the router's
	// handshake rejects a worker on a different tier than its own.
	Precision kernel.Precision
}

// ErrUnavailable marks a request no worker could answer after retries —
// every worker is down or unreachable, not the request invalid. The serving
// layer maps it to HTTP 503 so a dead fleet degrades into fast failures,
// never hangs.
var ErrUnavailable = errors.New("shard unavailable")

// TransportError wraps a failed transport call with its retryability:
// Transient failures (connection refused, reset, timeout) are worth a
// retry-with-backoff; permanent ones (the worker rejected the payload) are
// not.
type TransportError struct {
	Shard     int
	Transient bool
	Err       error
}

// Error formats the underlying failure with its shard.
func (e *TransportError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("shard %d: %s transport error: %v", e.Shard, kind, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransient reports whether err is a transport failure worth retrying.
func IsTransient(err error) bool {
	var te *TransportError
	return errors.As(err, &te) && te.Transient
}

// StaleError reports a worker whose graph version does not match the
// router's: Have is the worker's version, Want the version the call needed.
// The router heals it by replaying its delta log from Have+1 — a restarted
// worker (back at its bootstrap version) rejoins this way without the
// router restarting.
type StaleError struct {
	Shard      int
	Have, Want uint64
}

// Error formats the version gap.
func (e *StaleError) Error() string {
	return fmt.Sprintf("shard %d: stale graph version %d, want %d", e.Shard, e.Have, e.Want)
}

// precisionError reports a request whose precision tier does not match the
// tier the worker was bootstrapped at. Unlike a version gap it is not
// healable by replay — the worker's lowered operands are built for one tier —
// so the HTTP handler maps it to 409 (conflict) and the router treats it as
// permanent. The handshake normally catches the mismatch before any request
// is routed; this guards requests racing a fleet reconfiguration.
type precisionError struct {
	shard      int
	have, want kernel.Precision
}

// Error formats the tier conflict with its shard.
func (e *precisionError) Error() string {
	return fmt.Sprintf("shard %d: serves precision %s, request wants %s", e.shard, e.have, e.want)
}

// LocalTransport serves Workers living in the router's own address space —
// today's single-process sharding expressed through the Transport API.
// Calls are direct method dispatch (no serialization), so answers and costs
// are exactly the pre-transport router's; the bit-identity equivalence
// suite pins that.
type LocalTransport struct {
	workers []*Worker
}

// NewLocalTransport wraps in-process workers (index = worker index).
func NewLocalTransport(workers []*Worker) *LocalTransport {
	return &LocalTransport{workers: workers}
}

func (t *LocalTransport) check(ctx context.Context, shardID int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if shardID < 0 || shardID >= len(t.workers) {
		return &TransportError{Shard: shardID, Err: fmt.Errorf("no such worker (have %d)", len(t.workers))}
	}
	return nil
}

// Infer dispatches directly to the in-process worker. The context flows
// through unchanged, so an obs.Trace riding it collects the worker's
// engine spans directly — no wire stitching in-process.
func (t *LocalTransport) Infer(ctx context.Context, shardID int, req *InferRequest) (*core.Result, error) {
	if err := t.check(ctx, shardID); err != nil {
		return nil, err
	}
	return t.workers[shardID].InferContext(ctx, req)
}

// ApplyDelta dispatches directly to the in-process worker. Every worker
// gets the same logged ShardDelta, which none of them modifies.
func (t *LocalTransport) ApplyDelta(ctx context.Context, shardID int, sd *ShardDelta) error {
	if err := t.check(ctx, shardID); err != nil {
		return err
	}
	return t.workers[shardID].ApplyDelta(sd)
}

// Health reports the in-process worker's state (always reachable).
func (t *LocalTransport) Health(ctx context.Context, shardID int) (HealthInfo, error) {
	if err := t.check(ctx, shardID); err != nil {
		return HealthInfo{}, err
	}
	return t.workers[shardID].Health(), nil
}

// Close is a no-op: local workers share the router's lifetime.
func (t *LocalTransport) Close() error { return nil }
