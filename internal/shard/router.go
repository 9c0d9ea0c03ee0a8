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
)

// Config parametrizes NewRouter, NewRouterTransport, NewRouterGroups and
// NewWorker.
type Config struct {
	// Shards is the partition width P (1 ≤ P ≤ nodes; 1 degenerates to a
	// routed single deployment).
	Shards int
	// Radius is not read.
	//
	// Deprecated: workers hold the whole graph, so every operating point
	// the model allows is served whatever its TMax.
	Radius int
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

// check validates cfg against (m, g) before a router or worker builds
// anything.
func (cfg Config) check(m *core.Model, g *graph.Graph) error {
	switch {
	case g.F() != m.FeatureDim:
		return fmt.Errorf("shard: graph feature dim %d != model %d", g.F(), m.FeatureDim)
	case !cfg.Precision.Valid():
		return fmt.Errorf("shard: unknown precision tier %d", int(cfg.Precision))
	case cfg.Shards < 1 || cfg.Shards > g.N():
		return fmt.Errorf("shard: cannot cut %d nodes into %d shards", g.N(), cfg.Shards)
	}
	return nil
}

// Router fronts a set of shard workers with the same Infer / ApplyDelta
// surface as a single core.Deployment (both satisfy serve.Backend). It owns
// the source-of-truth graph — delta validation, the ownership map and
// ServingGraph read it — and the delta log; the workers hold the bulky
// hot-path state, reached exclusively through the Transport: in-process
// (NewRouter) or remote worker processes (NewRouterTransport,
// NewRouterGroups).
//
// Failure handling is one state machine over one record per worker (see
// endpoint): every shard is a group of R ≥ 1 endpoints and is up while any
// of them is. A call that fails transiently takes that endpoint out of
// rotation and moves to its peer; a group that fails as a whole is retried
// with jittered exponential backoff and then — while the background prober
// runs — fails fast with ErrUnavailable (the serving layer's 503) instead of
// re-paying timeouts per request. Stale workers (restarted, or starved of a
// delta) are healed by replaying the router's delta log to them, so a
// worker rejoins without the router restarting.
type Router struct {
	model  *core.Model
	global *graph.Graph
	prec   kernel.Precision
	// bootGlobalN is the node count at bootstrap. Workers report the count
	// they bootstrapped from (it never changes on the worker — deltas are
	// tracked by version), so validation compares against this, not the
	// grown r.global.N().
	bootGlobalN int
	owner       []int32
	// ownedCount[p] tracks shard p's owned-node count for least-loaded
	// placement of unattached arrivals.
	ownedCount []int

	transport Transport
	retries   int
	backoff   time.Duration
	jitter    func(max time.Duration) time.Duration

	// version counts applied deltas (monotone, part of the serve.Backend
	// surface shared with core.Deployment).
	version atomic.Uint64
	// deltaLog[i] is the ShardDelta that takes every worker from version
	// i+1 to i+2; never truncated, so any worker version since bootstrap can
	// be replayed forward (the memory cost of restartability — a delta rate
	// high enough to care about would warrant snapshotting instead).
	// expNodes is a worker's node count at the current version (probe
	// validation compares workers against it). Both are guarded by logMu,
	// and the version is published under logMu too, so a reader holding it
	// sees a consistent (version, log, expNodes) triple.
	logMu    sync.Mutex
	deltaLog []*ShardDelta
	expNodes int

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
// workers, each over its own clone of g, behind a LocalTransport. The
// Router takes ownership of g: all subsequent mutations must go through
// Router.ApplyDelta.
func NewRouter(m *core.Model, g *graph.Graph, cfg Config) (*Router, error) {
	r, err := newRouter(m, g, cfg)
	if err != nil {
		return nil, err
	}
	workers := make([]*Worker, cfg.Shards)
	for p := range workers {
		if workers[p], err = NewWorker(m, g, cfg, p); err != nil {
			return nil, err
		}
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
// same shape — labels them in status reports. It rebuilds the partition
// from (m, g) and performs a health handshake with every group, verifying
// that each worker serves the expected shard of the expected partition
// (shard id, width, tier, bootstrap and current node counts) at version 1;
// a group starts as long as one of its workers passes. The router takes
// ownership of t (Close closes it) and of g, exactly like NewRouter.
func NewRouterGroups(m *core.Model, g *graph.Graph, cfg Config, t Transport, groups [][]int, addrs [][]string) (*Router, error) {
	r, err := newRouter(m, g, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.connect(t, groups, addrs); err != nil {
		return nil, err
	}
	return r, nil
}

// newRouter validates cfg and builds the router minus its workers:
// defaults and the partition.
func newRouter(m *core.Model, g *graph.Graph, cfg Config) (*Router, error) {
	if err := cfg.check(m, g); err != nil {
		return nil, err
	}
	asg, err := Partition(g, cfg.Shards, StrategyBFS)
	if err != nil {
		return nil, err
	}
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
		prec:        cfg.Precision,
		bootGlobalN: g.N(),
		owner:       asg.Owner,
		ownedCount:  make([]int, asg.P),
		retries:     cfg.Retries,
		backoff:     cfg.RetryBackoff,
		jitter:      cfg.Jitter,
		expNodes:    g.N(),
		rr:          make([]atomic.Uint64, asg.P),
	}
	for p, owned := range asg.Owned {
		r.ownedCount[p] = len(owned)
	}
	r.version.Store(1) // fresh build = version 1, matching core.Deployment
	return r, nil
}

// connect attaches the workers behind t as endpoint groups and runs the
// start-up handshake against every shard.
func (r *Router) connect(t Transport, groups [][]int, addrs [][]string) error {
	var err error
	if r.groups, err = newGroups(len(r.ownedCount), groups, addrs); err != nil {
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
// context with one call to the majority owner: the whole request, in
// request order, goes to the shard that owns the most of its targets (ties
// to the lowest shard id). Every worker serves the whole graph at the
// router's version, so that shard's result is returned unchanged — its
// predictions, depths, histogram and MACs equal the unsharded engine's.
// Safe for concurrent callers.
//
// A chosen shard whose group stays unreachable after retries fails the
// request with an error wrapping ErrUnavailable (HTTP 503 at the serving
// layer) — fail fast, never hang; the context's deadline bounds every
// transport call.
func (r *Router) InferContext(ctx context.Context, targets []int, opt core.InferenceOptions) (*core.Result, error) {
	if err := opt.Validate(r.model); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return &core.Result{NodesPerDepth: make([]int, r.model.K+1)}, nil
	}
	n := r.global.N()
	count := make([]int, len(r.groups))
	p := 0
	for _, v := range targets {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("shard: node %d outside [0,%d)", v, n)
		}
		o := int(r.owner[v])
		if count[o]++; count[o] > count[p] || count[o] == count[p] && o < p {
			p = o
		}
	}
	tr := obs.FromContext(ctx)
	at := tr.Begin()
	res, err := r.inferGroup(ctx, p,
		&InferRequest{Version: r.version.Load(), Targets: targets, Opt: opt, Precision: r.prec})
	tr.End(obs.StageFanout, 0, p, at)
	return res, err
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

// ServingGraph returns the serving graph (serve.Backend): the one delta
// validation and the ownership map read.
func (r *Router) ServingGraph() *graph.Graph { return r.global }

// Shards reports the partition width P.
func (r *Router) Shards() int { return len(r.groups) }

// Version reports the router's monotone graph version: 1 for a fresh
// build, +1 per effective ApplyDelta.
func (r *Router) Version() uint64 { return r.version.Load() }

// ShardSize describes one shard for observability: how many nodes it owns
// and how many more its worker replicates.
type ShardSize struct {
	Owned, Halo int
}

// Sizes reports per-shard owned node counts beside the rest of the graph,
// which every worker also holds: Halo is N − Owned, so the halo sum over
// shards divided by N is P − 1.
func (r *Router) Sizes() []ShardSize {
	out := make([]ShardSize, len(r.ownedCount))
	for p, owned := range r.ownedCount {
		out[p] = ShardSize{Owned: owned, Halo: r.global.N() - owned}
	}
	return out
}
