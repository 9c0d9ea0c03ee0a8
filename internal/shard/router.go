package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/par"
)

// Config parametrizes NewRouter and NewRouterTransport.
type Config struct {
	// Shards is the partition width P (≥ 1; 1 degenerates to a routed
	// single deployment, the baseline the sharding benchmark compares
	// against).
	Shards int
	// Radius is the halo radius in hops: each shard's subgraph holds every
	// node within Radius hops of its owned set, so any operating point with
	// TMax ≤ Radius can be served exactly. ≤0 defaults to the model's K
	// (the deepest depth any operating point can ask for).
	Radius int
	// Strategy selects the partitioner (default StrategyBFS).
	Strategy Strategy
	// Retries is how many times a transiently failed transport call is
	// retried (with exponential backoff) before the shard is declared
	// unavailable; ≤0 defaults to 2 (three attempts total).
	Retries int
	// RetryBackoff is the first retry's backoff cap, doubling per attempt;
	// ≤0 defaults to 5ms. In-process transports never fail transiently, so
	// both knobs only matter for networked workers.
	RetryBackoff time.Duration
	// Jitter draws each retry's actual sleep from [0, cap), where cap is the
	// current backoff (full jitter): when a shard dies under load, the
	// concurrent callers that all failed together would otherwise re-dial in
	// lockstep every backoff doubling — a retry storm hammering the worker
	// just as it restarts. nil defaults to a thread-safe uniform draw; tests
	// inject a deterministic source.
	Jitter func(max time.Duration) time.Duration
	// Precision is the tier every shard serves at (zero value = f64, the
	// bit-pinned reference). The whole fleet runs one tier: the handshake
	// rejects a worker bootstrapped at a different tier, and a racing
	// request against a mismatched worker is a 409 conflict.
	Precision kernel.Precision
}

const (
	defaultRetries      = 2
	defaultRetryBackoff = 5 * time.Millisecond
)

// shardRuntime is the router-side bookkeeping for one shard: the membership
// of its local subgraph (owned ∪ halo, ids compacted in ascending global
// order at build time, arrivals appended), the remap between coordinate
// spaces, and the hop distance of every local node from the owned set. The
// shard's bulky serving state (features, normalized adjacency, scratch)
// lives behind the Transport, in a Worker — in-process or remote.
type shardRuntime struct {
	// universe maps local → global id.
	universe []int
	// toLocal maps global → local id; −1 outside the universe. Router
	// deltas extend it as the global graph grows.
	toLocal []int32
	// dist[lv] is the hop distance of local node lv from the owned set
	// (0 = owned, Radius = outermost ghost ring). Nodes with dist ≤
	// Radius−1 are interior: their local adjacency rows are complete.
	dist []int
}

// shardHealth is the router's view of one shard's liveness, fed by call
// outcomes and the background prober.
type shardHealth struct {
	mu   sync.Mutex
	up   bool
	err  error // last failure while down
	info HealthInfo
	// replay serializes delta-log catch-up per shard, so concurrent stale
	// answers trigger one replay, not a stampede.
	replay sync.Mutex
}

// Router fronts a set of shard workers with the same Infer / ApplyDelta
// surface as a single core.Deployment (both satisfy serve.Backend). It owns
// the source-of-truth global graph — the partition map, delta routing and
// halo bookkeeping all read it — plus the global stationary state; the
// workers hold the bulky hot-path state (features, normalized adjacency
// rows, propagation scratch) only for their own subgraph, reached
// exclusively through the Transport: in-process (NewRouter) or remote
// worker processes (NewRouterTransport).
//
// Failure handling: transient transport failures retry with exponential
// backoff; a shard that stays unreachable is marked down and — while the
// background prober runs — fails fast with ErrUnavailable (the serving
// layer's 503) instead of re-paying timeouts per request. Stale workers
// (restarted, behind the router's graph version) are healed by replaying
// the router's per-shard delta log, so a worker rejoins without the router
// restarting.
type Router struct {
	model  *core.Model
	global *graph.Graph
	st     *core.Stationary
	radius int
	prec   kernel.Precision
	// bootGlobalN is the global node count at bootstrap. Workers report the
	// count they bootstrapped from (it never changes on the worker — deltas
	// are tracked by version), so validation compares against this, not the
	// grown r.global.N().
	bootGlobalN int
	owner       []int32
	// ownedCount[p] tracks shard p's owned-node count for least-loaded
	// placement of unattached arrivals.
	ownedCount []int
	shards     []*shardRuntime

	transport Transport
	retries   int
	backoff   time.Duration
	jitter    func(max time.Duration) time.Duration

	// version counts applied deltas (monotone, part of the serve.Backend
	// surface shared with core.Deployment).
	version atomic.Uint64
	// deltaLog[p][i] is the ShardDelta that takes shard p from version i+1
	// to i+2; never truncated, so any worker version since bootstrap can be
	// replayed forward (the memory cost of restartability — a delta-rate
	// high enough to care about would warrant snapshotting instead).
	// expNodes[p] is shard p's expected local node count at the current
	// version (probe validation compares workers against it). Both are
	// guarded by logMu, and the version is published under logMu too, so a
	// reader holding it sees a consistent (version, log, expNodes) triple.
	logMu    sync.Mutex
	deltaLog [][]*ShardDelta
	expNodes []int

	health    []*shardHealth
	probing   atomic.Bool
	probeStop chan struct{}
	probeDone chan struct{}
}

// NewRouter partitions g into cfg.Shards shards and builds in-process
// workers behind a LocalTransport. The Router takes ownership of g: all
// subsequent mutations must go through Router.ApplyDelta (mutating g behind
// the router's back desynchronizes the shard subgraphs).
func NewRouter(m *core.Model, g *graph.Graph, cfg Config) (*Router, error) {
	if g.F() != m.FeatureDim {
		return nil, fmt.Errorf("shard: graph feature dim %d != model %d", g.F(), m.FeatureDim)
	}
	if !cfg.Precision.Valid() {
		return nil, fmt.Errorf("shard: unknown precision tier %d", int(cfg.Precision))
	}
	radius := cfg.Radius
	if radius <= 0 {
		radius = m.K
	}
	asg, err := Partition(g, cfg.Shards, cfg.Strategy)
	if err != nil {
		return nil, err
	}
	st := core.ComputeStationary(g.Adj, g.Features, m.Gamma)
	return newRouter(m, g, st, asg, radius, cfg)
}

// newRouter builds a local-transport runtime from an explicit assignment
// (tests use it to rebuild a router from scratch with the owner map an
// evolved router ended up with, pinning the incremental delta path against
// a fresh build).
func newRouter(m *core.Model, g *graph.Graph, st *core.Stationary, asg *Assignment, radius int, cfg Config) (*Router, error) {
	r := newRouterCommon(m, g, st, asg, radius, cfg)
	workers := make([]*Worker, asg.P)
	for p := 0; p < asg.P; p++ {
		r.shards[p] = buildRuntime(g, asg.Owned[p], radius)
		r.expNodes[p] = len(r.shards[p].universe)
		dep, lst, err := buildShardState(m, g, st, r.shards[p].universe)
		if err != nil {
			return nil, err
		}
		workers[p] = newWorker(p, asg.P, radius, g.N(), cfg.Precision, dep, lst)
	}
	r.transport = NewLocalTransport(workers)
	for p := range r.health {
		info, err := r.transport.Health(context.Background(), p)
		if err != nil {
			return nil, err
		}
		r.health[p].up, r.health[p].info = true, info
	}
	return r, nil
}

// NewRouterTransport builds a router over already-running workers reached
// through t (index = shard id): it rebuilds the partition and halo
// bookkeeping from (m, g) — the same deterministic construction the workers
// themselves ran — and performs a health handshake with every shard,
// verifying that each worker serves the expected shard of the expected
// partition (shard id, width, radius, local and global node counts) at
// version 1. The router takes ownership of t (Close closes it) and of g,
// exactly like NewRouter.
func NewRouterTransport(m *core.Model, g *graph.Graph, cfg Config, t Transport) (*Router, error) {
	if g.F() != m.FeatureDim {
		return nil, fmt.Errorf("shard: graph feature dim %d != model %d", g.F(), m.FeatureDim)
	}
	if !cfg.Precision.Valid() {
		return nil, fmt.Errorf("shard: unknown precision tier %d", int(cfg.Precision))
	}
	radius := cfg.Radius
	if radius <= 0 {
		radius = m.K
	}
	asg, err := Partition(g, cfg.Shards, cfg.Strategy)
	if err != nil {
		return nil, err
	}
	st := core.ComputeStationary(g.Adj, g.Features, m.Gamma)
	r := newRouterCommon(m, g, st, asg, radius, cfg)
	r.transport = t
	for p := 0; p < asg.P; p++ {
		r.shards[p] = buildRuntime(g, asg.Owned[p], radius)
		r.expNodes[p] = len(r.shards[p].universe)
	}
	// A replica-aware transport (ReplicaSet) needs the router's delta log
	// and validation to heal lagging replicas in place; wire it before the
	// handshake so replica probes validate from the start.
	if cs, ok := t.(interface{ SetController(ReplicaController) }); ok {
		cs.SetController(r)
	}
	for p := range r.health {
		if err := r.handshake(context.Background(), p); err != nil {
			return nil, fmt.Errorf("shard %d handshake: %w", p, err)
		}
	}
	return r, nil
}

// newRouterCommon builds the transport-independent router skeleton.
func newRouterCommon(m *core.Model, g *graph.Graph, st *core.Stationary, asg *Assignment, radius int, cfg Config) *Router {
	if cfg.Retries <= 0 {
		cfg.Retries = defaultRetries
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	if cfg.Jitter == nil {
		cfg.Jitter = fullJitter
	}
	r := &Router{
		model:       m,
		global:      g,
		st:          st,
		radius:      radius,
		prec:        cfg.Precision,
		bootGlobalN: g.N(),
		owner:       asg.Owner,
		ownedCount:  make([]int, asg.P),
		shards:      make([]*shardRuntime, asg.P),
		retries:     cfg.Retries,
		backoff:     cfg.RetryBackoff,
		jitter:      cfg.Jitter,
		deltaLog:    make([][]*ShardDelta, asg.P),
		expNodes:    make([]int, asg.P),
		health:      make([]*shardHealth, asg.P),
	}
	for p := range r.health {
		r.health[p] = &shardHealth{}
	}
	for p := 0; p < asg.P; p++ {
		r.ownedCount[p] = len(asg.Owned[p])
	}
	r.version.Store(1) // fresh build = version 1, matching core.Deployment
	return r
}

// buildRuntime computes one shard's router-side bookkeeping: the halo
// universe, the global→local remap, and per-node hop distances.
func buildRuntime(g *graph.Graph, owned []int, radius int) *shardRuntime {
	sets := graph.SupportingSets(g.Adj, owned, radius)
	universe := sets[0]
	toLocal := graph.NewIndex(g.N())
	graph.IndexSet(universe, toLocal)
	dist := make([]int, len(universe))
	for rr := radius; rr >= 0; rr-- {
		// sets[radius−rr] is the radius-rr ball; descending rr leaves each
		// node with its minimum distance.
		for _, v := range sets[radius-rr] {
			dist[toLocal[v]] = rr
		}
	}
	return &shardRuntime{universe: universe, toLocal: toLocal, dist: dist}
}

// handshake probes shard p (retrying transient failures — the worker may
// still be binding its listener) and verifies the worker serves the shard
// this router expects.
func (r *Router) handshake(ctx context.Context, p int) error {
	var info HealthInfo
	err := r.withRetry(ctx, p, func() error {
		var herr error
		info, herr = r.transport.Health(ctx, p)
		return herr
	})
	if err != nil {
		return err
	}
	if err := r.validateWorker(p, info); err != nil {
		return err
	}
	switch {
	case info.Nodes != len(r.shards[p].universe):
		return fmt.Errorf("worker subgraph has %d nodes, want %d", info.Nodes, len(r.shards[p].universe))
	case info.Version != r.version.Load():
		return fmt.Errorf("worker at graph version %d, want %d", info.Version, r.version.Load())
	}
	h := r.health[p]
	h.mu.Lock()
	h.up, h.err, h.info = true, nil, info
	h.mu.Unlock()
	return nil
}

// validateWorker checks the partition parameters a worker can never
// legitimately disagree with the router on, whatever graph version it is
// at: its position in the partition and the bootstrap inputs it rebuilt
// its state from. Both the startup handshake and the probe's re-admission
// path run it — a worker restarted with different flags or a different
// graph must be rejected, not silently rejoined (it would serve answers
// that are not bit-identical).
func (r *Router) validateWorker(p int, info HealthInfo) error {
	switch {
	case info.ShardID != p:
		return fmt.Errorf("worker serves shard %d, want %d", info.ShardID, p)
	case info.Shards != len(r.shards):
		return fmt.Errorf("worker partition width %d, want %d", info.Shards, len(r.shards))
	case info.Radius != r.radius:
		return fmt.Errorf("worker halo radius %d, want %d", info.Radius, r.radius)
	case info.GlobalNodes != r.bootGlobalN:
		return fmt.Errorf("worker built from %d global nodes, want %d", info.GlobalNodes, r.bootGlobalN)
	case info.Precision != r.prec:
		return fmt.Errorf("worker serves precision %s, want %s", info.Precision, r.prec)
	}
	return nil
}

// fullJitter is the default retry jitter: a uniform draw over [0, max).
// The top-level math/rand functions are safe for concurrent callers.
func fullJitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(max)))
}

// withRetry runs call, retrying transient failures up to the configured
// attempt budget, sleeping a full-jittered draw from an exponentially
// doubling backoff cap between attempts (concurrent callers failing
// against the same dead shard decorrelate instead of retrying in
// synchronized waves); the final error is returned as-is (callers
// classify it).
func (r *Router) withRetry(ctx context.Context, p int, call func() error) error {
	backoff := r.backoff
	var err error
	for attempt := 0; ; attempt++ {
		if err = call(); err == nil || !IsTransient(err) || attempt >= r.retries {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(r.jitter(backoff)):
		}
		backoff *= 2
	}
}

// markUp records a successful call to shard p.
func (r *Router) markUp(p int) {
	h := r.health[p]
	h.mu.Lock()
	h.up, h.err = true, nil
	h.mu.Unlock()
}

// markDown records shard p as unreachable with its last failure.
func (r *Router) markDown(p int, err error) {
	h := r.health[p]
	h.mu.Lock()
	h.up, h.err = false, err
	h.mu.Unlock()
}

// failFast reports whether calls to shard p should be refused outright: the
// shard is marked down and the background prober is running (so the mark
// will clear once the worker is back). Without a prober a down-mark must
// not stick — the next call is the only probe there is.
func (r *Router) failFast(p int) (error, bool) {
	if !r.probing.Load() {
		return nil, false
	}
	h := r.health[p]
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.up {
		return nil, false
	}
	return fmt.Errorf("shard %d %w: %v", p, ErrUnavailable, h.err), true
}

// inferShard runs one shard-local batch through the transport, healing
// stale workers (delta-log replay) and retrying transient failures; an
// exhausted retry budget marks the shard down and wraps ErrUnavailable.
func (r *Router) inferShard(ctx context.Context, p int, req *InferRequest) (*core.Result, error) {
	if err, fast := r.failFast(p); fast {
		return nil, err
	}
	var res *core.Result
	err := r.withRetry(ctx, p, func() error {
		var ierr error
		res, ierr = r.transport.Infer(ctx, p, req)
		var stale *StaleError
		if errors.As(ierr, &stale) {
			if cerr := r.catchUp(ctx, p, stale.Have); cerr != nil {
				return cerr
			}
			res, ierr = r.transport.Infer(ctx, p, req)
		}
		return ierr
	})
	if err == nil {
		r.markUp(p)
		return res, nil
	}
	if IsTransient(err) {
		r.markDown(p, err)
		return nil, fmt.Errorf("shard %d %w: %v", p, ErrUnavailable, err)
	}
	return nil, err
}

// catchUp replays the delta log to bring shard p from version have up to
// the router's current version. Replays are serialized per shard; the
// worker's versioned idempotence makes overlapping replays harmless anyway.
func (r *Router) catchUp(ctx context.Context, p int, have uint64) error {
	h := r.health[p]
	h.replay.Lock()
	defer h.replay.Unlock()
	replay, err := r.ReplayDeltas(p, have)
	if err != nil {
		return err
	}
	for _, sd := range replay {
		if err := r.transport.ApplyDelta(ctx, p, sd); err != nil {
			return err
		}
	}
	return nil
}

// ReplayDeltas snapshots the delta-log suffix that takes shard p's worker
// from graph version have up to the router's current version (nil when
// already current). It is half of the ReplicaController surface a
// ReplicaSet transport heals its lagging replicas through; the router's
// own catchUp replays the same snapshot.
func (r *Router) ReplayDeltas(p int, have uint64) ([]*ShardDelta, error) {
	cur := r.version.Load()
	if have == cur {
		return nil, nil // another caller already replayed
	}
	if have < 1 || have > cur {
		return nil, &TransportError{Shard: p,
			Err: fmt.Errorf("worker graph version %d outside router history [1,%d]", have, cur)}
	}
	r.logMu.Lock()
	// deltaLog[p][i] produces version i+2, so versions have+1..cur are
	// entries have−1..cur−2. ApplyDeltaContext publishes the version under
	// logMu only after logging its plans, so the log always reaches cur−1;
	// clamp defensively anyway — an out-of-range slice here would crash the
	// router.
	lo, hi := int(have-1), int(cur-1)
	if n := len(r.deltaLog[p]); hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	replay := append([]*ShardDelta(nil), r.deltaLog[p][lo:hi]...)
	r.logMu.Unlock()
	return replay, nil
}

// ValidateReplica runs the re-admission checks against one replica's
// health report: the static handshake parameters always, and the expected
// subgraph size when the replica claims the current graph version (a
// lagging replica's node count is checked after its replay instead). The
// other half of the ReplicaController surface.
func (r *Router) ValidateReplica(p int, info HealthInfo) error {
	if p < 0 || p >= len(r.shards) {
		return fmt.Errorf("shard %d outside partition [0,%d)", p, len(r.shards))
	}
	if err := r.validateWorker(p, info); err != nil {
		return err
	}
	r.logMu.Lock()
	cur, exp := r.version.Load(), r.expNodes[p]
	r.logMu.Unlock()
	if info.Version == cur && info.Nodes != exp {
		return fmt.Errorf("replica subgraph has %d nodes at version %d, want %d", info.Nodes, cur, exp)
	}
	return nil
}

// Infer answers with no deadline or cancellation — InferContext with a
// background context.
func (r *Router) Infer(targets []int, opt core.InferenceOptions) (*core.Result, error) {
	return r.InferContext(context.Background(), targets, opt)
}

// InferContext answers for the targets (global ids) under the caller's
// context by bucketing them per owning shard, running the per-shard
// transport calls concurrently (internal/par fans them out; tiny requests
// run inline under its work threshold), and scattering the per-shard
// results back into request order. Predictions and depths are bit-identical
// to a single unsharded Deployment; MAC totals and TotalTime/FPTime sum the
// per-shard batches, so — exactly like BatchSize splitting — the cost
// accounting reflects the sharded execution and the time sums can exceed
// wall clock. Safe for concurrent callers.
//
// A shard that stays unreachable after retries fails the request with an
// error wrapping ErrUnavailable (HTTP 503 at the serving layer) — fail
// fast, never hang; the context's deadline bounds every transport call.
func (r *Router) InferContext(ctx context.Context, targets []int, opt core.InferenceOptions) (*core.Result, error) {
	if err := opt.Validate(r.model); err != nil {
		return nil, err
	}
	if opt.TMax > r.radius {
		return nil, fmt.Errorf("shard: TMax %d exceeds the partition's halo radius %d", opt.TMax, r.radius)
	}
	agg := &core.Result{NodesPerDepth: make([]int, r.model.K+1)}
	if len(targets) == 0 {
		return agg, nil
	}
	n := r.global.N()
	local := make([][]int, len(r.shards))
	pos := make([][]int, len(r.shards))
	for i, v := range targets {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("shard: node %d outside [0,%d)", v, n)
		}
		p := r.owner[v]
		local[p] = append(local[p], int(r.shards[p].toLocal[v]))
		pos[p] = append(pos[p], i)
	}
	var calls []int
	for p := range local {
		if len(local[p]) > 0 {
			calls = append(calls, p)
		}
	}

	version := r.version.Load()
	results := make([]*core.Result, len(calls))
	errs := make([]error, len(calls))
	tr := obs.FromContext(ctx)
	// Every per-shard call runs a full batch pipeline — supporting-ball
	// BFS, sub-CSR extraction, propagation — whose cost dwarfs a goroutine
	// spawn even for single-target requests (the ball scales with the
	// graph's degrees, not the target count), so any multi-shard request
	// clears par's fan-out threshold by construction; a single-shard
	// request runs inline either way. Fan-out spans record concurrently
	// into the shared trace (span appends are atomic).
	par.For(len(calls), par.Threshold*len(calls), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			p := calls[k]
			at := tr.Begin()
			results[k], errs[k] = r.inferShard(ctx, p,
				&InferRequest{Version: version, Targets: local[p], Opt: opt, Precision: r.prec})
			tr.End(obs.StageFanout, 0, p, at)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	mergeAt := tr.Begin()
	agg.Pred = make([]int, len(targets))
	agg.Depths = make([]int, len(targets))
	for k, p := range calls {
		res := results[k]
		for j, i := range pos[p] {
			agg.Pred[i] = res.Pred[j]
			agg.Depths[i] = res.Depths[j]
		}
		for l := range res.NodesPerDepth {
			agg.NodesPerDepth[l] += res.NodesPerDepth[l]
		}
		agg.MACs.Add(res.MACs)
		agg.TotalTime += res.TotalTime
		agg.FPTime += res.FPTime
		agg.NumTargets += res.NumTargets
	}
	tr.End(obs.StageMerge, 0, -1, mergeAt)
	return agg, nil
}

// StartHealthProbe launches the background prober: every interval it
// health-checks each shard through the transport, marking shards up or down
// (down shards fail requests fast with ErrUnavailable until they recover)
// and proactively replaying the delta log to restarted workers found behind
// the router's graph version. No-op if interval ≤ 0 or already probing;
// Close stops it.
func (r *Router) StartHealthProbe(interval time.Duration) {
	if interval <= 0 || !r.probing.CompareAndSwap(false, true) {
		return
	}
	r.probeStop = make(chan struct{})
	r.probeDone = make(chan struct{})
	go func() {
		defer close(r.probeDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-r.probeStop:
				return
			case <-t.C:
				r.Probe(context.Background())
			}
		}
	}()
}

// Probe health-checks every shard once (the background prober calls it each
// interval; tests call it directly to make recovery deterministic). A shard
// answering at an older graph version — a restarted worker — is caught up
// by delta-log replay, then re-validated against the full handshake checks
// (partition position, bootstrap inputs, node count at the caught-up
// version) before being marked up again: a worker restarted with different
// flags or a different graph must stay rejected, not silently rejoin.
func (r *Router) Probe(ctx context.Context) {
	for p := range r.health {
		r.probeShard(ctx, p)
	}
}

// probeShard runs one shard's health check, catch-up and re-validation.
func (r *Router) probeShard(ctx context.Context, p int) {
	info, err := r.transport.Health(ctx, p)
	if err != nil {
		r.markDown(p, err)
		return
	}
	if err := r.validateWorker(p, info); err != nil {
		r.markDown(p, err)
		return
	}
	if cur := r.version.Load(); info.Version < cur {
		if err := r.catchUp(ctx, p, info.Version); err != nil {
			r.markDown(p, err)
			return
		}
		// Re-fetch so the version and node count reflect the caught-up
		// worker (the replay grew its subgraph), and re-check the static
		// parameters from the fresh sample.
		if info, err = r.transport.Health(ctx, p); err != nil {
			r.markDown(p, err)
			return
		}
		if err := r.validateWorker(p, info); err != nil {
			r.markDown(p, err)
			return
		}
	}
	r.logMu.Lock()
	cur, exp := r.version.Load(), r.expNodes[p]
	r.logMu.Unlock()
	switch {
	case info.Version > cur:
		r.markDown(p, fmt.Errorf("worker at graph version %d, ahead of router %d", info.Version, cur))
		return
	case info.Version < cur:
		// A delta landed between the catch-up and this check; its delivery
		// path marks the shard itself, and the next sweep re-validates —
		// don't overwrite that verdict from an already-stale sample.
		return
	case info.Nodes != exp:
		r.markDown(p, fmt.Errorf("worker subgraph has %d nodes at version %d, want %d", info.Nodes, cur, exp))
		return
	}
	h := r.health[p]
	h.mu.Lock()
	h.up, h.err, h.info = true, nil, info
	h.mu.Unlock()
}

// Describe snapshots the fleet for the serving layer (serve.Backend): the
// graph version and tier, every shard's liveness with per-replica status
// when the transport replicates shards, the scratch footprint as of each
// shard's last probe, the hop-1 memo counters of the workers in this process
// (remote workers report their own, so over an HTTP transport these are
// zero) and a replicated transport's failover counters. /healthz's verdict,
// the /stats shards block and the per-shard gauges are all read off one
// such snapshot, so they cannot contradict each other.
func (r *Router) Describe() core.Info {
	info := core.Info{Version: r.Version(), Precision: r.prec,
		Shards: make([]core.ShardStatus, len(r.health))}
	for p, h := range r.health {
		h.mu.Lock()
		info.Shards[p] = core.ShardStatus{Shard: p, Up: h.up, Version: h.info.Version, Nodes: h.info.Nodes}
		if !h.up && h.err != nil {
			info.Shards[p].Err = h.err.Error()
		}
		info.ScratchBytes += h.info.ScratchBytes
		h.mu.Unlock()
	}
	switch t := r.transport.(type) {
	case *ReplicaSet:
		for p, rh := range t.ReplicaHealth() {
			if p < len(info.Shards) {
				info.Shards[p].Replicas = rh
			}
		}
		info.Failovers, info.ReplicaRetries = t.Failovers(), t.ReplicaRetries()
	case *LocalTransport:
		for _, w := range t.workers {
			info.Hop1.Add(w.dep.Hop1Stats())
		}
	}
	return info
}

// Close stops the background prober (if running) and closes the transport.
func (r *Router) Close() error {
	if r.probing.CompareAndSwap(true, false) {
		close(r.probeStop)
		<-r.probeDone
	}
	return r.transport.Close()
}

// localWorker reaches an in-process worker directly (tests inspect shard
// state through it; only valid on routers built over a LocalTransport).
func (r *Router) localWorker(p int) *Worker {
	return r.transport.(*LocalTransport).workers[p]
}

// ServingGraph returns the global serving graph (serve.Backend): the one
// the partition map, delta routing and halo bookkeeping read.
func (r *Router) ServingGraph() *graph.Graph { return r.global }

// Shards reports the partition width P.
func (r *Router) Shards() int { return len(r.shards) }

// Radius reports the halo radius the partition was built for.
func (r *Router) Radius() int { return r.radius }

// Version reports the router's monotone graph version: 1 for a fresh
// build, +1 per effective ApplyDelta (ReplicaController).
func (r *Router) Version() uint64 { return r.version.Load() }

// ShardSize describes one shard's subgraph for observability: how many
// nodes it owns and how many ghost rows its halo replicates.
type ShardSize struct {
	Owned, Halo int
}

// Sizes reports per-shard owned and halo node counts. The halo sum over
// shards divided by the node count is the replication overhead the
// partition pays for shard-local supporting balls.
func (r *Router) Sizes() []ShardSize {
	out := make([]ShardSize, len(r.shards))
	for p, s := range r.shards {
		out[p] = ShardSize{Owned: r.ownedCount[p], Halo: len(s.universe) - r.ownedCount[p]}
	}
	return out
}
