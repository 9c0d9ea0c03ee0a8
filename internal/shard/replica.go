package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// ReplicaState is one replica's liveness as the ReplicaSet sees it.
type ReplicaState int

// Replica states: Up replicas receive Infer traffic; Lagging ones are
// reachable but behind the router's graph version (replay re-admits them);
// Down ones failed their last call or probe.
const (
	ReplicaUp ReplicaState = iota
	ReplicaLagging
	ReplicaDown
)

// String formats the state for status reports and metrics labels.
func (s ReplicaState) String() string {
	switch s {
	case ReplicaUp:
		return "up"
	case ReplicaLagging:
		return "lagging"
	default:
		return "down"
	}
}

// ReplicaController is the router-side surface a ReplicaSet needs to heal
// lagging replicas on its own: the current graph version, the delta-log
// suffix that takes a replica from its version to the current one, and the
// same re-admission validation the router's probe runs. Router implements
// it; NewRouterTransport wires it into a ReplicaSet transport automatically.
type ReplicaController interface {
	// Version reports the router's current graph version.
	Version() uint64
	// ReplayDeltas returns (a copy of) the delta-log entries that take a
	// worker from graph version have up to the router's current version.
	ReplayDeltas(shard int, have uint64) ([]*ShardDelta, error)
	// ValidateReplica runs the handshake checks against a replica's health
	// report: partition position, bootstrap inputs, and — when the replica
	// is at the current version — the expected subgraph size.
	ValidateReplica(shard int, info HealthInfo) error
}

// replica is one worker endpoint inside a ReplicaSet: a flat index into the
// wrapped transport plus the set's view of its liveness.
type replica struct {
	flat int
	addr string

	mu    sync.Mutex
	state ReplicaState
	err   error // last failure while not up
	info  HealthInfo
	// replay serializes delta-log catch-up per replica so concurrent heal
	// attempts (failover path, probe, delta fan-out) replay once, not as a
	// stampede; the worker's versioned idempotence makes overlap harmless
	// anyway.
	replay sync.Mutex
}

func (rp *replica) mark(state ReplicaState, err error) {
	rp.mu.Lock()
	rp.state, rp.err = state, err
	rp.mu.Unlock()
}

func (rp *replica) markUpInfo(info HealthInfo) {
	rp.mu.Lock()
	rp.state, rp.err, rp.info = ReplicaUp, nil, info
	rp.mu.Unlock()
}

func (rp *replica) snapshot() (ReplicaState, error, HealthInfo) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.state, rp.err, rp.info
}

// ReplicaSet is a Transport wrapper that gives every shard id R ≥ 1 worker
// replicas behind one flat-indexed inner transport. Because workers
// bootstrap deterministically and deltas are versioned and idempotent,
// every caught-up replica holds bit-identical state — so the set can route
// each Infer to any healthy replica (round-robin among caught-up ones),
// fail over transparently when one dies mid-request, and fan ApplyDelta to
// all of them while tolerating stragglers, without any answer bit changing.
//
// Infer tries the shard's replicas in rotation order: transient failures
// mark the replica down and move on to the next (the failover the caller
// never sees); a stale replica is healed by delta-log replay through the
// ReplicaController and retried; only when every replica of the shard has
// failed does the call return a transient error — which the router's retry
// and health machinery turns into ErrUnavailable (HTTP 503), so a shard
// goes dark only when all of its replicas are down.
//
// ApplyDelta applies to every replica. One success commits the call;
// unreachable replicas are marked down and owe the delta — the router's
// log replays it to them at the next probe, Infer heal, or fan-out. A
// replica that rejects a delta permanently fails the call (a routing bug
// must scream, matching the single-replica contract).
//
// Health probes all replicas, heals lagging ones via the controller's
// replay path, re-validates them with the handshake checks before marking
// them up again, and reports the most caught-up healthy replica's view; it
// errors only when no replica is serviceable. Safe for concurrent callers,
// like any Transport.
type ReplicaSet struct {
	inner  Transport
	groups [][]*replica
	rr     []atomic.Uint64 // per-shard rotation counter

	ctrlMu sync.RWMutex
	ctrl   ReplicaController

	failovers atomic.Uint64 // Infer calls re-routed past a failed replica
	retries   atomic.Uint64 // replica-level attempts beyond each call's first
}

// NewReplicaSet wraps a flat-indexed transport into per-shard replica
// groups: groups[p] lists the flat inner-transport indices serving shard p
// (every index must appear in exactly one group), and addrs — optional,
// same shape, nil to skip — labels them for status reports and metrics.
// Every group needs at least one replica.
func NewReplicaSet(inner Transport, groups [][]int, addrs [][]string) (*ReplicaSet, error) {
	rs := &ReplicaSet{
		inner:  inner,
		groups: make([][]*replica, len(groups)),
		rr:     make([]atomic.Uint64, len(groups)),
	}
	seen := map[int]bool{}
	for p, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("shard %d: replica group is empty", p)
		}
		rs.groups[p] = make([]*replica, len(g))
		for i, flat := range g {
			if seen[flat] {
				return nil, fmt.Errorf("shard %d: flat index %d appears in two replica groups", p, flat)
			}
			seen[flat] = true
			rp := &replica{flat: flat}
			if addrs != nil && p < len(addrs) && i < len(addrs[p]) {
				rp.addr = addrs[p][i]
			}
			rs.groups[p][i] = rp
		}
	}
	return rs, nil
}

// NewHTTPReplicaSet dials worker processes arranged as replica groups:
// groups[p] are shard p's replica addresses (one worker process each, all
// bootstrapped for shard p of the same partition). All replicas share one
// HTTP transport, so keep-alive connections pool across the fleet.
func NewHTTPReplicaSet(groups [][]string, cfg HTTPTransportConfig) (*ReplicaSet, error) {
	var flatAddrs []string
	idx := make([][]int, len(groups))
	for p, g := range groups {
		for _, a := range g {
			idx[p] = append(idx[p], len(flatAddrs))
			flatAddrs = append(flatAddrs, a)
		}
	}
	return NewReplicaSet(NewHTTPTransport(flatAddrs, cfg), idx, groups)
}

// SetController wires the router-side delta log and validation into the
// set; NewRouterTransport calls it when its transport is a ReplicaSet.
// Until a controller is set, stale replicas are routed around rather than
// healed in place (the router's own catch-up path still reaches them,
// because ApplyDelta fans to every replica).
func (rs *ReplicaSet) SetController(c ReplicaController) {
	rs.ctrlMu.Lock()
	rs.ctrl = c
	rs.ctrlMu.Unlock()
}

func (rs *ReplicaSet) controller() ReplicaController {
	rs.ctrlMu.RLock()
	defer rs.ctrlMu.RUnlock()
	return rs.ctrl
}

func (rs *ReplicaSet) checkShard(shardID int) error {
	if shardID < 0 || shardID >= len(rs.groups) {
		return &TransportError{Shard: shardID, Err: fmt.Errorf("no such shard (have %d)", len(rs.groups))}
	}
	return nil
}

// candidates orders shard p's replicas for one Infer attempt: the up
// replicas first, rotated by the shard's round-robin counter (so steady
// traffic spreads across caught-up replicas), then the lagging and down
// ones as a last resort — they only see traffic when every up replica has
// already failed this call, so a dead replica costs nothing while a live
// peer answers.
func (rs *ReplicaSet) candidates(p int) []*replica {
	group := rs.groups[p]
	off := int(rs.rr[p].Add(1))
	out := make([]*replica, 0, len(group))
	var rest []*replica
	for i := range group {
		rp := group[(i+off)%len(group)]
		rp.mu.Lock()
		up := rp.state == ReplicaUp
		rp.mu.Unlock()
		if up {
			out = append(out, rp)
		} else {
			rest = append(rest, rp)
		}
	}
	return append(out, rest...)
}

// replayReplica brings one replica from graph version have up to the
// router's current version by re-delivering the logged shard deltas.
func (rs *ReplicaSet) replayReplica(ctx context.Context, p int, rp *replica, have uint64) error {
	ctrl := rs.controller()
	if ctrl == nil {
		return &TransportError{Shard: p, Transient: true,
			Err: fmt.Errorf("replica %d stale at version %d with no controller to replay", rp.flat, have)}
	}
	rp.replay.Lock()
	defer rp.replay.Unlock()
	deltas, err := ctrl.ReplayDeltas(p, have)
	if err != nil {
		return err
	}
	for _, sd := range deltas {
		if err := rs.inner.ApplyDelta(ctx, rp.flat, sd); err != nil {
			return err
		}
	}
	return nil
}

// Infer routes one shard-local batch to a healthy replica, failing over to
// the next on transient errors and healing stale replicas in place; see
// the type comment for the full contract.
func (rs *ReplicaSet) Infer(ctx context.Context, shardID int, req *InferRequest) (*core.Result, error) {
	if err := rs.checkShard(shardID); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt, rp := range rs.candidates(shardID) {
		if attempt > 0 {
			rs.retries.Add(1)
		}
		if err := ctx.Err(); err != nil {
			break
		}
		res, err := rs.inner.Infer(ctx, rp.flat, req)
		var stale *StaleError
		if errors.As(err, &stale) && rs.controller() != nil {
			// A replica behind the requested version (restarted, or starved
			// of a delta): replay the log suffix and retry it once in place.
			// A failed replay just leaves the stale error standing — the
			// replica is routed around, not the call failed.
			if herr := rs.replayReplica(ctx, shardID, rp, stale.Have); herr == nil {
				res, err = rs.inner.Infer(ctx, rp.flat, req)
			}
		}
		switch {
		case err == nil:
			// Answering at the requested version proves the replica caught
			// up; re-admit it to the rotation.
			rp.mark(ReplicaUp, nil)
			return res, nil
		case IsTransient(err):
			rp.mark(ReplicaDown, err)
			lastErr = err
			rs.failovers.Add(1)
		case errors.As(err, &stale):
			// Still stale (no controller yet, a racing delta, or a failed
			// replay): leave it lagging and try a peer.
			rp.mark(ReplicaLagging, err)
			lastErr = err
			rs.failovers.Add(1)
		default:
			// Permanent call failure (rejected payload, precision conflict):
			// every caught-up replica would answer identically, so failing
			// over would just repeat it.
			return nil, err
		}
	}
	var stale *StaleError
	if errors.As(lastErr, &stale) {
		// Every replica is behind and the set cannot replay (pre-handshake):
		// surface the version gap so the router's own catch-up heals the
		// group through the fan-out path.
		return nil, lastErr
	}
	// Every replica failed: surface a transient error so the router's retry
	// budget, down-marking and ErrUnavailable mapping apply — the shard is
	// 503 only when all of its replicas are down.
	return nil, &TransportError{Shard: shardID, Transient: true,
		Err: fmt.Errorf("all %d replicas failed: %w", len(rs.groups[shardID]), lastErr)}
}

// ApplyDelta fans one versioned shard delta to every replica of the shard.
// One replica applying (or already holding) the delta commits the call;
// unreachable replicas are marked down as stragglers the delta log heals
// later. A permanent rejection fails the call even if peers accepted —
// a worker refusing a planned delta is a routing bug, not an outage.
func (rs *ReplicaSet) ApplyDelta(ctx context.Context, shardID int, sd *ShardDelta) error {
	if err := rs.checkShard(shardID); err != nil {
		return err
	}
	applied := 0
	var firstPermanent, lastStale, lastTransient error
	for _, rp := range rs.groups[shardID] {
		err := rs.inner.ApplyDelta(ctx, rp.flat, sd)
		var stale *StaleError
		if errors.As(err, &stale) && rs.controller() != nil {
			// The replica is missing earlier deltas too; the replay includes
			// this one, so a successful catch-up IS the delivery.
			err = rs.replayReplica(ctx, shardID, rp, stale.Have)
		}
		switch {
		case err == nil:
			applied++
			rp.mark(ReplicaUp, nil)
		case IsTransient(err):
			rp.mark(ReplicaDown, err)
			lastTransient = err
		case errors.As(err, &stale):
			rp.mark(ReplicaLagging, err)
			lastStale = err
		case firstPermanent == nil:
			rp.mark(ReplicaDown, err)
			firstPermanent = err
		default:
			rp.mark(ReplicaDown, err)
		}
	}
	switch {
	case firstPermanent != nil:
		return firstPermanent
	case applied > 0:
		return nil
	case lastStale != nil:
		// No controller to replay with (pre-handshake): hand the version gap
		// to the router, whose own catch-up fans the missing deltas right
		// back through this method.
		return lastStale
	default:
		return &TransportError{Shard: shardID, Transient: true,
			Err: fmt.Errorf("no replica accepted the delta: %w", lastTransient)}
	}
}

// Health probes every replica of the shard, healing lagging ones by replay
// and re-validating them with the controller's handshake checks before
// re-admission; it reports the most caught-up healthy replica's view and
// errors only when no replica is serviceable.
func (rs *ReplicaSet) Health(ctx context.Context, shardID int) (HealthInfo, error) {
	if err := rs.checkShard(shardID); err != nil {
		return HealthInfo{}, err
	}
	ctrl := rs.controller()
	var best HealthInfo
	var lastErr error
	ok := false
	for _, rp := range rs.groups[shardID] {
		info, err := rs.probeReplica(ctx, shardID, rp, ctrl)
		if err != nil {
			lastErr = err
			continue
		}
		if !ok || info.Version > best.Version {
			best = info
		}
		ok = true
	}
	if !ok {
		return HealthInfo{}, lastErr
	}
	return best, nil
}

// probeReplica runs one replica's health check, catch-up and re-validation,
// updating its recorded state; it mirrors the router's probeShard but at
// replica granularity.
func (rs *ReplicaSet) probeReplica(ctx context.Context, shardID int, rp *replica, ctrl ReplicaController) (HealthInfo, error) {
	info, err := rs.inner.Health(ctx, rp.flat)
	if err != nil {
		rp.mark(ReplicaDown, err)
		return HealthInfo{}, err
	}
	if ctrl == nil {
		// Pre-handshake (or a bare ReplicaSet): no version authority yet,
		// report what the replica says and let the router validate.
		rp.markUpInfo(info)
		return info, nil
	}
	if err := ctrl.ValidateReplica(shardID, info); err != nil {
		rp.mark(ReplicaDown, err)
		return HealthInfo{}, err
	}
	if cur := ctrl.Version(); info.Version < cur {
		if err := rs.replayReplica(ctx, shardID, rp, info.Version); err != nil {
			rp.mark(ReplicaLagging, err)
			return HealthInfo{}, err
		}
		// Re-fetch so the reported version and node count reflect the
		// caught-up replica, and re-check against the handshake rules.
		if info, err = rs.inner.Health(ctx, rp.flat); err != nil {
			rp.mark(ReplicaDown, err)
			return HealthInfo{}, err
		}
		if err := ctrl.ValidateReplica(shardID, info); err != nil {
			rp.mark(ReplicaDown, err)
			return HealthInfo{}, err
		}
	}
	if cur := ctrl.Version(); info.Version > cur {
		err := fmt.Errorf("replica %d at graph version %d, ahead of router %d", rp.flat, info.Version, cur)
		rp.mark(ReplicaDown, err)
		return HealthInfo{}, err
	} else if info.Version < cur {
		// A delta landed between the replay and this check; the fan-out path
		// owns that delivery and the next probe re-validates.
		err := fmt.Errorf("replica %d still at graph version %d after replay, router at %d", rp.flat, info.Version, cur)
		rp.mark(ReplicaLagging, err)
		return HealthInfo{}, err
	}
	rp.markUpInfo(info)
	return info, nil
}

// Close closes the wrapped transport once (replicas share it).
func (rs *ReplicaSet) Close() error { return rs.inner.Close() }

// Replicas reports the replica count of shard p (the R in "R-way
// replicated"; groups may be uneven).
func (rs *ReplicaSet) Replicas(p int) int {
	if p < 0 || p >= len(rs.groups) {
		return 0
	}
	return len(rs.groups[p])
}

// ReplicaHealth snapshots every replica's state, grouped by shard id — the
// per-replica half of the router's Describe report.
func (rs *ReplicaSet) ReplicaHealth() [][]core.ReplicaStatus {
	out := make([][]core.ReplicaStatus, len(rs.groups))
	for p, group := range rs.groups {
		out[p] = make([]core.ReplicaStatus, len(group))
		for i, rp := range group {
			state, err, info := rp.snapshot()
			out[p][i] = core.ReplicaStatus{Replica: i, Addr: rp.addr,
				State: state.String(), Version: info.Version}
			if state != ReplicaUp && err != nil {
				out[p][i].Err = err.Error()
			}
		}
	}
	return out
}

// Failovers reports how many times an Infer or fan-out moved past a failed
// replica since the set was built (the /metrics failover counter).
func (rs *ReplicaSet) Failovers() uint64 { return rs.failovers.Load() }

// ReplicaRetries reports the replica-level attempts beyond each call's
// first — the retry traffic replication absorbed before the router's own
// retry budget was touched.
func (rs *ReplicaSet) ReplicaRetries() uint64 { return rs.retries.Load() }
