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

// endpoint is the router's record of one worker: which shard it serves,
// its index in the flat transport, and what the last call, delivery or
// probe learned about it. A shard is a group of R ≥ 1 of these; because
// workers bootstrap deterministically and deltas are versioned and
// idempotent, every caught-up endpoint of a group holds bit-identical
// state, so any of them may answer.
type endpoint struct {
	shard, flat int
	addr        string

	mu    sync.Mutex
	state endpointState
	err   error // last failure while not up
	// info is the worker's last health report, except info.Version, which
	// also follows deliveries and replays: the graph version the worker is
	// known to hold (1 = as bootstrapped, before any report).
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

// newGroups builds the endpoint records for a flat-indexed transport:
// groups[p] lists the transport indices serving shard p (nil = one endpoint
// per shard, index = shard id), and addrs — optional, same shape — labels
// them for status reports. Every shard needs at least one endpoint and no
// index may serve two.
func newGroups(shards int, groups [][]int, addrs [][]string) ([][]*endpoint, error) {
	if groups == nil {
		groups = make([][]int, shards)
		for p := range groups {
			groups[p] = []int{p}
		}
	}
	if len(groups) != shards {
		return nil, fmt.Errorf("shard: %d endpoint groups for %d shards", len(groups), shards)
	}
	out := make([][]*endpoint, shards)
	seen := map[int]bool{}
	for p, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("shard %d: endpoint group is empty", p)
		}
		for i, flat := range g {
			if seen[flat] {
				return nil, fmt.Errorf("shard %d: transport index %d appears in two endpoint groups", p, flat)
			}
			seen[flat] = true
			ep := &endpoint{shard: p, flat: flat, info: HealthInfo{Version: 1}}
			if p < len(addrs) && i < len(addrs[p]) {
				ep.addr = addrs[p][i]
			}
			out[p] = append(out[p], ep)
		}
	}
	return out, nil
}

// candidates orders shard p's endpoints for one round of an Infer: the up
// ones first, rotated by the shard's round-robin counter (so steady traffic
// spreads across caught-up endpoints), then the lagging and down ones as a
// last resort — they only see traffic when every up endpoint has already
// failed this round, so a dead endpoint costs nothing while a live peer
// answers.
func (r *Router) candidates(p int) []*endpoint {
	group := r.groups[p]
	if len(group) == 1 {
		return group
	}
	off := int(r.rr[p].Add(1))
	out := make([]*endpoint, 0, len(group))
	var rest []*endpoint
	for i := range group {
		if ep := group[(i+off)%len(group)]; ep.up() {
			out = append(out, ep)
		} else {
			rest = append(rest, ep)
		}
	}
	return append(out, rest...)
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
	deltas, err := r.logSuffix(ep.shard, have)
	if err != nil {
		return err
	}
	for _, sd := range deltas {
		if err := r.transport.ApplyDelta(ctx, ep.flat, sd); err != nil {
			return err
		}
		ep.setVersion(sd.Version)
	}
	return nil
}

// logSuffix snapshots the delta-log entries that take a worker of shard p
// from graph version have up to the router's current version (nil when
// already current).
func (r *Router) logSuffix(p int, have uint64) ([]*ShardDelta, error) {
	cur := r.version.Load()
	if have == cur {
		return nil, nil // another caller already replayed
	}
	if have < 1 || have > cur {
		return nil, &TransportError{Shard: p,
			Err: fmt.Errorf("worker graph version %d outside router history [1,%d]", have, cur)}
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	// deltaLog[i] produces version i+2, so versions have+1..cur are entries
	// have−1..cur−2. ApplyDeltaContext publishes the version under logMu
	// only after logging the delta, so the log always reaches cur−1; clamp
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
// partition parameters, catch a worker behind the router's graph version up
// by replay (its own report overrides the recorded version — a restarted
// worker is back at 1), then re-validate the caught-up report — version and
// node count included — before marking the endpoint up. A worker
// restarted with different flags or a different graph stays rejected, not
// silently re-admitted: it would serve answers that are not bit-identical.
func (r *Router) probeEndpoint(ctx context.Context, ep *endpoint) {
	health := func() (HealthInfo, error) {
		info, err := r.transport.Health(ctx, ep.flat)
		if err == nil {
			err = r.validateWorker(ep.shard, info)
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
		// A delta landed between the catch-up and this check; its delivery
		// files its own outcome and the next sweep re-validates — don't
		// overwrite that verdict from an already-stale sample.
	case info.Nodes != exp:
		ep.record(fmt.Errorf("worker graph has %d nodes at version %d, want %d", info.Nodes, cur, exp))
	default:
		ep.mu.Lock()
		ep.state, ep.err, ep.info = stateUp, nil, info
		ep.mu.Unlock()
	}
}

// validateWorker checks the partition parameters a worker can never
// legitimately disagree with the router on, whatever graph version it is
// at: its position in the partition and the bootstrap inputs it rebuilt
// its state from.
func (r *Router) validateWorker(p int, info HealthInfo) error {
	switch {
	case info.ShardID != p:
		return fmt.Errorf("worker serves shard %d, want %d", info.ShardID, p)
	case info.Shards != len(r.groups):
		return fmt.Errorf("worker partition width %d, want %d", info.Shards, len(r.groups))
	case info.GlobalNodes != r.bootGlobalN:
		return fmt.Errorf("worker built from %d global nodes, want %d", info.GlobalNodes, r.bootGlobalN)
	case info.Precision != r.prec:
		return fmt.Errorf("worker serves precision %s, want %s", info.Precision, r.prec)
	}
	return nil
}

// handshake probes every endpoint of shard p at start-up, retrying while
// none answers (a worker may still be binding its listener): one validated
// endpoint is enough to serve the shard, the rest rejoin through later
// probes.
func (r *Router) handshake(ctx context.Context, p int) error {
	return r.withRetry(ctx, func() error {
		for _, ep := range r.groups[p] {
			r.probeEndpoint(ctx, ep)
		}
		return r.groupErr(p)
	})
}

// groupErr is how a shard's liveness derives from its endpoints': nil while
// any endpoint of shard p is up, else the last failure recorded in the
// group.
func (r *Router) groupErr(p int) error {
	var lastErr error
	for _, ep := range r.groups[p] {
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

// inferGroup runs one batch of shard p's targets against its group. Each round
// walks the candidates: a stale answer is healed by replaying the log
// suffix to that endpoint and retried once in place; a transient failure or
// a version gap that would not heal takes the endpoint out of rotation and
// moves on to its peer with no backoff (the failover the caller never
// sees); a permanent failure (rejected payload, precision conflict) is
// returned at once — every caught-up endpoint would answer identically.
// Only when a whole round fails does the call back off, and only when the
// retry budget is spent does it wrap ErrUnavailable: a shard goes dark only
// when all of its endpoints are.
func (r *Router) inferGroup(ctx context.Context, p int, req *InferRequest) (*core.Result, error) {
	if r.probing.Load() {
		// Fail fast: nothing is up and the prober will clear the mark once a
		// worker is back. Without a prober a mark must not stick — the next
		// call is the only probe there is.
		if err := r.groupErr(p); err != nil {
			return nil, fmt.Errorf("shard %d %w: %v", p, ErrUnavailable, err)
		}
	}
	var res *core.Result
	err := r.withRetry(ctx, func() error {
		var lastErr error
		for i, ep := range r.candidates(p) {
			if lastErr = ctx.Err(); lastErr != nil {
				break
			}
			if i > 0 {
				r.failovers.Add(1)
				r.extraTries.Add(1)
			}
			var err error
			res, err = r.transport.Infer(ctx, ep.flat, req)
			var stale *StaleError
			if errors.As(err, &stale) {
				// A failed replay leaves the version gap standing: the endpoint
				// is routed around, not the call failed.
				if herr := r.replay(ctx, ep, stale.Have); herr != nil {
					err = fmt.Errorf("%w; replay: %v", err, herr)
				} else {
					res, err = r.transport.Infer(ctx, ep.flat, req)
				}
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
		return &TransportError{Shard: p, Transient: true,
			Err: fmt.Errorf("all %d endpoints failed: %w", len(r.groups[p]), lastErr)}
	})
	if IsTransient(err) {
		return nil, fmt.Errorf("shard %d %w: %v", p, ErrUnavailable, err)
	}
	return res, err
}

// deliver ships the delta just logged to every endpoint of shard p — which
// is a replay from each endpoint's recorded version, so an endpoint that
// missed earlier deltas gets those too. One endpoint holding the delta
// commits the round; unreachable or stale endpoints are left owing it (the
// next probe, Infer heal or delivery replays the log to them) and only a
// round nobody accepted is retried. A permanent rejection is returned even
// if peers accepted — a worker refusing a delta its router accepted is a
// bug, not an outage.
func (r *Router) deliver(ctx context.Context, p int) error {
	return r.withRetry(ctx, func() error {
		var permanent, lastErr error
		applied := false
		for _, ep := range r.groups[p] {
			err := r.replay(ctx, ep, 0)
			ep.record(err)
			var stale *StaleError
			switch {
			case err == nil:
				applied = true
			case IsTransient(err) || errors.As(err, &stale):
				lastErr = err
			case permanent == nil:
				permanent = err
			}
		}
		switch {
		case permanent != nil:
			return permanent
		case applied:
			return nil
		}
		return &TransportError{Shard: p, Transient: true,
			Err: fmt.Errorf("no endpoint accepted the delta: %w", lastErr)}
	})
}
