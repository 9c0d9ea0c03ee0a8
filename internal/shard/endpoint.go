package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// endpointState is one worker's liveness as the router sees it: up
// endpoints receive Infer traffic; lagging ones are reachable but behind
// the router's graph version (replay re-admits them); down ones failed
// their last call or probe.
type endpointState int

const (
	stateUp endpointState = iota
	stateLagging
	stateDown
)

// String formats the state for status reports and metrics labels.
func (s endpointState) String() string {
	switch s {
	case stateUp:
		return "up"
	case stateLagging:
		return "lagging"
	default:
		return "down"
	}
}

// endpoint is the router's record of one worker: its transport index, its
// address label, and what the last call, replay or probe learned about it.
// Because workers bootstrap deterministically and deltas are versioned and
// idempotent, every caught-up worker holds bit-identical state, so any of
// them may answer.
type endpoint struct {
	index int
	addr  string

	mu    sync.Mutex
	state endpointState
	err   error // last failure while not up
	// info is the worker's last health report, except info.Version, which
	// also follows replays and stale answers: the graph version the worker
	// is known to hold (1 = as bootstrapped, before any report). A delta
	// leaves it alone, so the router's version minus it is the worker's lag.
	info HealthInfo
	// replay serializes log-suffix replay, so concurrent stale answers
	// trigger one replay, not a stampede.
	replay sync.Mutex
}

// record files the outcome of a call against the endpoint: success
// re-admits it, a version gap leaves it lagging at the version the worker
// itself reported, anything else takes it down.
func (ep *endpoint) record(err error) {
	var stale *StaleError
	ep.mu.Lock()
	defer ep.mu.Unlock()
	switch {
	case err == nil:
		ep.state, ep.err = stateUp, nil
	case errors.As(err, &stale):
		ep.state, ep.err, ep.info.Version = stateLagging, err, stale.Have
	default:
		ep.state, ep.err = stateDown, err
	}
}

func (ep *endpoint) up() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.state == stateUp
}

func (ep *endpoint) setVersion(v uint64) {
	ep.mu.Lock()
	ep.info.Version = v
	ep.mu.Unlock()
}

// candidates orders the workers for one round of an Infer: the up ones
// first, rotated by the round-robin counter so consecutive requests go to
// consecutive up workers, then the lagging and down ones as a last resort —
// they only see traffic when every up worker has already failed this
// round, so a dead worker costs nothing while another answers.
func (r *Router) candidates() []*endpoint {
	if len(r.endpoints) == 1 {
		return r.endpoints
	}
	up := make([]*endpoint, 0, len(r.endpoints))
	var rest []*endpoint
	for _, ep := range r.endpoints {
		if ep.up() {
			up = append(up, ep)
		} else {
			rest = append(rest, ep)
		}
	}
	if n := len(up); n > 1 {
		off := int(r.rr.Add(1) % uint64(n))
		up = append(up[off:n:n], up[:off]...) // the full cap forces a copy
	}
	return append(up, rest...)
}

// replay brings one endpoint up to the router's current graph version by
// re-delivering the logged deltas past have, the version the caller saw the
// worker report (0 = whatever the router recorded). Replays are serialized
// per endpoint, and a caller that waited behind another's replay carries a
// version sampled before it — so the suffix starts at whichever of have and
// the recorded version is later, and N concurrent stale answers ship the
// suffix once. A recorded version that overshoots (the worker restarted
// since) corrects itself: the worker answers stale, record files the
// version it reports, and the next attempt starts there.
func (r *Router) replay(ctx context.Context, ep *endpoint, have uint64) error {
	ep.replay.Lock()
	defer ep.replay.Unlock()
	ep.mu.Lock()
	if ep.info.Version > have {
		have = ep.info.Version
	}
	ep.mu.Unlock()
	deltas, err := r.logSuffix(ep.index, have)
	if err != nil {
		return err
	}
	for _, sd := range deltas {
		if err := r.transport.ApplyDelta(ctx, ep.index, sd); err != nil {
			return err
		}
		ep.setVersion(sd.Version)
	}
	return nil
}

// logSuffix snapshots the delta-log entries that take worker i from graph
// version have up to the router's current version (nil when already
// current).
func (r *Router) logSuffix(i int, have uint64) ([]*ShardDelta, error) {
	cur := r.version.Load()
	if have == cur {
		return nil, nil // another caller already replayed
	}
	if have < 1 || have > cur {
		return nil, &TransportError{Shard: i,
			Err: fmt.Errorf("worker graph version %d outside router history [1,%d]", have, cur)}
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	// deltaLog[i] produces version i+2, so versions have+1..cur are entries
	// have−1..cur−2. ApplyDelta publishes the version under logMu only
	// after logging the delta, so the log always reaches cur−1; clamp
	// defensively anyway — an out-of-range slice here would crash the
	// router.
	lo, hi := int(have-1), int(cur-1)
	if n := len(r.deltaLog); hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return append([]*ShardDelta(nil), r.deltaLog[lo:hi]...), nil
}

// probeEndpoint is the one health check, run by Probe sweeps and by the
// start-up handshake alike: ask the worker for its report, validate its
// bootstrap parameters, catch a worker behind the router's graph version up
// by replay (its own report overrides the recorded version — a restarted
// worker is back at 1; one that rejects the replay goes down), then
// re-validate the caught-up report — version and node count included —
// before marking the endpoint up. A worker restarted with different flags
// or a different graph stays rejected, not silently re-admitted: it would
// serve answers that are not bit-identical.
func (r *Router) probeEndpoint(ctx context.Context, ep *endpoint) {
	health := func() (HealthInfo, error) {
		info, err := r.transport.Health(ctx, ep.index)
		if err == nil {
			err = r.validateWorker(info)
		}
		return info, err
	}
	info, err := health()
	if err == nil && info.Version < r.version.Load() {
		ep.setVersion(info.Version)
		if err = r.replay(ctx, ep, info.Version); err == nil {
			info, err = health()
		}
	}
	if err != nil {
		ep.record(err)
		return
	}
	r.logMu.Lock()
	cur, exp := r.version.Load(), r.expNodes
	r.logMu.Unlock()
	switch {
	case info.Version > cur:
		ep.record(fmt.Errorf("worker at graph version %d, ahead of router %d", info.Version, cur))
	case info.Version < cur:
		// A delta landed between the catch-up and this check; the worker's
		// next call or sweep replays it — don't file a verdict from an
		// already-stale sample.
	case info.Nodes != exp:
		ep.record(fmt.Errorf("worker graph has %d nodes at version %d, want %d", info.Nodes, cur, exp))
	default:
		ep.mu.Lock()
		ep.state, ep.err, ep.info = stateUp, nil, info
		ep.mu.Unlock()
	}
}

// validateWorker checks what a worker can never legitimately disagree with
// the router on, whatever graph version it is at: the bootstrap inputs it
// rebuilt its state from and its tier.
func (r *Router) validateWorker(info HealthInfo) error {
	switch {
	case info.GlobalNodes != r.bootGlobalN:
		return fmt.Errorf("worker built from %d global nodes, want %d", info.GlobalNodes, r.bootGlobalN)
	case info.Precision != r.prec:
		return fmt.Errorf("worker serves precision %s, want %s", info.Precision, r.prec)
	}
	return nil
}

// handshake probes every worker at start-up, retrying while none answers (a
// worker may still be binding its listener): one validated worker is
// enough to serve, the rest rejoin through later probes.
func (r *Router) handshake(ctx context.Context) error {
	return r.withRetry(ctx, func() error {
		for _, ep := range r.endpoints {
			r.probeEndpoint(ctx, ep)
		}
		return r.poolErr()
	})
}

// poolErr is how the pool's liveness derives from its workers': nil while
// any worker is up, else the last failure recorded.
func (r *Router) poolErr() error {
	var lastErr error
	for _, ep := range r.endpoints {
		ep.mu.Lock()
		state, err := ep.state, ep.err
		ep.mu.Unlock()
		if state == stateUp {
			return nil
		}
		lastErr = err
	}
	return lastErr
}

// infer runs one request against the pool and reports the index of the
// worker last tried. Each round walks the candidates: a stale answer is
// healed by replaying the log suffix to that worker and retried once in
// place; a transient failure or a replay the worker did not take (lagging
// if it reported another version gap, down otherwise) takes the worker out
// of rotation and moves on to the next with no backoff (the failover the
// caller never sees); a permanent failure of the call itself (rejected
// payload, precision conflict) is returned at once — every caught-up
// worker would answer identically. Only when a whole round fails does the
// call back off, and only when the retry budget is spent does it wrap
// ErrUnavailable: the pool goes dark only when every worker is.
func (r *Router) infer(ctx context.Context, req *InferRequest) (*core.Result, int, error) {
	if r.probing.Load() {
		// Fail fast: nothing is up and the prober will clear the mark once a
		// worker is back. Without a prober a mark must not stick — the next
		// call is the only probe there is.
		if err := r.poolErr(); err != nil {
			return nil, -1, fmt.Errorf("%w: no worker up: %v", ErrUnavailable, err)
		}
	}
	var res *core.Result
	last := -1
	err := r.withRetry(ctx, func() error {
		var lastErr error
		for i, ep := range r.candidates() {
			if lastErr = ctx.Err(); lastErr != nil {
				break
			}
			if i > 0 {
				r.failovers.Add(1)
			}
			last = ep.index
			var err error
			res, err = r.transport.Infer(ctx, ep.index, req)
			var stale *StaleError
			if errors.As(err, &stale) {
				if herr := r.replay(ctx, ep, stale.Have); herr != nil {
					// The worker is routed around, not the call failed.
					ep.record(herr)
					lastErr = herr
					continue
				}
				res, err = r.transport.Infer(ctx, ep.index, req)
			}
			if err != nil && !IsTransient(err) && !errors.As(err, &stale) {
				return err
			}
			ep.record(err)
			if err == nil {
				return nil
			}
			lastErr = err
		}
		return &TransportError{Shard: last, Transient: true,
			Err: fmt.Errorf("all %d workers failed: %w", len(r.endpoints), lastErr)}
	})
	if IsTransient(err) {
		return nil, last, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return res, last, err
}
