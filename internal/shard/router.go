package shard

import (
	"context"
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

// Config parametrizes NewRouter, NewRouterTransport and NewRouterGroups.
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
	// Retries is how many more rounds over a shard's endpoint group a call
	// makes (with exponential backoff between them) after a round in which
	// every endpoint failed transiently, before the shard is declared
	// unavailable; ≤0 defaults to 2 (three rounds total).
	Retries int
	// RetryBackoff is the first retry's backoff cap, doubling per round;
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

// Router fronts a set of shard workers with the same Infer / ApplyDelta
// surface as a single core.Deployment (both satisfy serve.Backend). It owns
// the source-of-truth global graph — the partition map, delta routing and
// halo bookkeeping all read it — plus the global stationary state; the
// workers hold the bulky hot-path state (features, normalized adjacency
// rows, propagation scratch) only for their own subgraph, reached
// exclusively through the Transport: in-process (NewRouter) or remote
// worker processes (NewRouterTransport, NewRouterGroups).
//
// Failure handling is one state machine over one record per worker (see
// endpoint): every shard is a group of R ≥ 1 endpoints and is up while any
// of them is. A call that fails transiently takes that endpoint out of
// rotation and moves to its peer; a group that fails as a whole is retried
// with jittered exponential backoff and then — while the background prober
// runs — fails fast with ErrUnavailable (the serving layer's 503) instead of
// re-paying timeouts per request. Stale workers (restarted, or starved of a
// delta) are healed by replaying the router's per-shard delta log to them,
// so a worker rejoins without the router restarting.
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

	// groups[p] are shard p's endpoints, rr[p] its round-robin counter.
	groups [][]*endpoint
	rr     []atomic.Uint64
	// failovers counts Infer rounds that moved on to another endpoint after
	// one failed; extraTries the endpoint attempts beyond each round's first.
	failovers, extraTries atomic.Uint64

	probing   atomic.Bool
	probeStop chan struct{}
	probeDone chan struct{}
}

// NewRouter partitions g into cfg.Shards shards and builds in-process
// workers behind a LocalTransport. The Router takes ownership of g: all
// subsequent mutations must go through Router.ApplyDelta (mutating g behind
// the router's back desynchronizes the shard subgraphs).
func NewRouter(m *core.Model, g *graph.Graph, cfg Config) (*Router, error) {
	asg, st, radius, err := layout(m, g, cfg)
	if err != nil {
		return nil, err
	}
	return newRouter(m, g, st, asg, radius, cfg)
}

// newRouter builds a local-transport runtime from an explicit assignment
// (tests use it to rebuild a router from scratch with the owner map an
// evolved router ended up with, pinning the incremental delta path against
// a fresh build).
func newRouter(m *core.Model, g *graph.Graph, st *core.Stationary, asg *Assignment, radius int, cfg Config) (*Router, error) {
	r := newRouterCommon(m, g, st, asg, radius, cfg)
	workers := make([]*Worker, asg.P)
	for p := range workers {
		dep, lst, err := buildShardState(m, g, st, r.shards[p].universe)
		if err != nil {
			return nil, err
		}
		workers[p] = newWorker(p, asg.P, radius, g.N(), cfg.Precision, dep, lst)
	}
	if err := r.connect(NewLocalTransport(workers), nil, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// NewRouterTransport builds a router over already-running workers, one per
// shard, reached through t (index = shard id): NewRouterGroups with every
// group a group of one.
func NewRouterTransport(m *core.Model, g *graph.Graph, cfg Config, t Transport) (*Router, error) {
	return NewRouterGroups(m, g, cfg, t, nil, nil)
}

// NewRouterGroups builds a router over already-running workers reached
// through the flat-indexed transport t: groups[p] lists the transport
// indices of the R ≥ 1 workers serving shard p (every index in exactly one
// group, no group empty; nil means index = shard id) and addrs — optional,
// same shape — labels them in status reports. It rebuilds the partition and
// halo bookkeeping from (m, g) — the same deterministic construction the
// workers themselves ran — and performs a health handshake with every
// group, verifying that each worker serves the expected shard of the
// expected partition (shard id, width, radius, tier, local and global node
// counts) at version 1; a group starts as long as one of its workers
// passes. The router takes ownership of t (Close closes it) and of g,
// exactly like NewRouter.
func NewRouterGroups(m *core.Model, g *graph.Graph, cfg Config, t Transport, groups [][]int, addrs [][]string) (*Router, error) {
	asg, st, radius, err := layout(m, g, cfg)
	if err != nil {
		return nil, err
	}
	r := newRouterCommon(m, g, st, asg, radius, cfg)
	if err := r.connect(t, groups, addrs); err != nil {
		return nil, err
	}
	return r, nil
}

// layout validates cfg against (m, g) and computes what every constructor
// starts from: the partition, the global stationary state and the halo
// radius.
func layout(m *core.Model, g *graph.Graph, cfg Config) (*Assignment, *core.Stationary, int, error) {
	if g.F() != m.FeatureDim {
		return nil, nil, 0, fmt.Errorf("shard: graph feature dim %d != model %d", g.F(), m.FeatureDim)
	}
	if !cfg.Precision.Valid() {
		return nil, nil, 0, fmt.Errorf("shard: unknown precision tier %d", int(cfg.Precision))
	}
	radius := cfg.Radius
	if radius <= 0 {
		radius = m.K
	}
	asg, err := Partition(g, cfg.Shards, cfg.Strategy)
	if err != nil {
		return nil, nil, 0, err
	}
	return asg, core.ComputeStationary(g.Adj, g.Features, m.Gamma), radius, nil
}

// newRouterCommon builds the router minus its workers: defaults, partition
// bookkeeping and each shard's halo runtime.
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
		rr:          make([]atomic.Uint64, asg.P),
	}
	for p := 0; p < asg.P; p++ {
		r.ownedCount[p] = len(asg.Owned[p])
		r.shards[p] = buildRuntime(g, asg.Owned[p], radius)
		r.expNodes[p] = len(r.shards[p].universe)
	}
	r.version.Store(1) // fresh build = version 1, matching core.Deployment
	return r
}

// connect attaches the workers behind t as endpoint groups and runs the
// start-up handshake against every shard.
func (r *Router) connect(t Transport, groups [][]int, addrs [][]string) error {
	var err error
	if r.groups, err = newGroups(len(r.shards), groups, addrs); err != nil {
		return err
	}
	r.transport = t
	for p := range r.groups {
		if err := r.handshake(context.Background(), p); err != nil {
			return fmt.Errorf("shard %d handshake: %w", p, err)
		}
	}
	return nil
}

// buildRuntime computes one shard's router-side bookkeeping from one BFS
// (graph.Levels): the halo universe — the radius-hop ball of the owned set,
// sorted — the global→local remap, and each node's hop distance, which is
// its ring's index.
func buildRuntime(g *graph.Graph, owned []int, radius int) *shardRuntime {
	set := graph.NewBitset(g.N())
	rings, ends, _ := graph.Levels(g.Adj, owned, radius, set, nil, nil, nil)
	// toLocal holds each node's ring until the universe is sorted.
	toLocal := graph.NewIndex(g.N())
	lo := 0
	for r, hi := range ends {
		for _, v := range rings[lo:hi] {
			toLocal[v] = int32(r)
		}
		lo = hi
	}
	_, balls := graph.SortedBalls(rings, ends[radius:], set, nil, nil)
	universe := balls[0]
	dist := make([]int, len(universe))
	for lv, v := range universe {
		dist[lv] = int(toLocal[v])
	}
	graph.IndexSet(universe, toLocal)
	return &shardRuntime{universe: universe, toLocal: toLocal, dist: dist}
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
// budget of rounds, sleeping a full-jittered draw from an exponentially
// doubling backoff cap between them (concurrent callers failing against the
// same dead shard decorrelate instead of retrying in synchronized waves);
// the final error is returned as-is (callers classify it).
func (r *Router) withRetry(ctx context.Context, call func() error) error {
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
	// BFS, compaction, propagation — whose cost dwarfs a goroutine
	// spawn even for single-target requests (the ball scales with the
	// graph's degrees, not the target count), so any multi-shard request
	// clears par's fan-out threshold by construction; a single-shard
	// request runs inline either way. Fan-out spans record concurrently
	// into the shared trace (span appends are atomic).
	par.For(len(calls), par.Threshold*len(calls), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			p := calls[k]
			at := tr.Begin()
			results[k], errs[k] = r.inferGroup(ctx, p,
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
// probes each endpoint through the transport, marking it up or down (a
// shard with no endpoint up fails requests fast with ErrUnavailable until
// one recovers) and proactively replaying the delta log to restarted
// workers found behind the router's graph version. No-op if interval ≤ 0 or
// already probing; Close stops it.
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

// Probe health-checks every endpoint once (the background prober calls it
// each interval; tests call it directly to make recovery deterministic);
// probeEndpoint is the check.
func (r *Router) Probe(ctx context.Context) {
	for _, group := range r.groups {
		for _, ep := range group {
			r.probeEndpoint(ctx, ep)
		}
	}
}

// Describe snapshots the fleet for the serving layer (serve.Backend): the
// graph version and tier, every shard's liveness with its endpoints' status
// under Replicas (a one-endpoint shard lists that one), the scratch
// footprint and layer counters summed over every endpoint's last
// health report, and the failover counters.
// /healthz's verdict, the /stats shards block and the per-shard gauges are
// all read off one such snapshot, so they cannot contradict each other.
func (r *Router) Describe() core.Info {
	info := core.Info{Version: r.Version(), Precision: r.prec,
		Shards:    make([]core.ShardStatus, len(r.groups)),
		Failovers: r.failovers.Load(), ReplicaRetries: r.extraTries.Load()}
	for p, group := range r.groups {
		st := core.ShardStatus{Shard: p, Replicas: make([]core.ReplicaStatus, len(group))}
		for i, ep := range group {
			ep.mu.Lock()
			rs := core.ReplicaStatus{Replica: i, Addr: ep.addr, State: ep.state.String(), Version: ep.info.Version}
			if ep.state == stateUp {
				// The shard reports its most caught-up serving endpoint.
				if !st.Up || ep.info.Version > st.Version {
					st.Version, st.Nodes = ep.info.Version, ep.info.Nodes
				}
				st.Up, st.Err = true, ""
			} else if ep.err != nil {
				rs.Err = ep.err.Error()
				if !st.Up {
					st.Err = rs.Err
				}
			}
			info.ScratchBytes += ep.info.ScratchBytes
			info.Hop1.Add(ep.info.Hop1)
			ep.mu.Unlock()
			st.Replicas[i] = rs
		}
		info.Shards[p] = st
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
// build, +1 per effective ApplyDelta.
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
