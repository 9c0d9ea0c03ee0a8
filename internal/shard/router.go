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

// Config parametrizes NewRouter, NewRouterTransport and NewWorker.
type Config struct {
	// Shards is the router's worker count: NewRouter builds that many
	// in-process workers, NewRouterTransport reaches transport indices
	// 0..Shards−1. NewWorker does not read it.
	Shards int
	// Radius is not read.
	//
	// Deprecated: workers hold the whole graph, so every operating point
	// the model allows is served whatever its TMax.
	Radius int
	// Retries is how many more rounds over the workers a call makes (with
	// exponential backoff between them) after a round in which every worker
	// failed transiently, before the pool is declared unavailable; ≤0
	// defaults to 2 (three rounds total).
	Retries int
	// RetryBackoff is the first retry's backoff cap, doubling per round;
	// ≤0 defaults to 5ms. In-process transports never fail transiently, so
	// both knobs only matter for networked workers.
	RetryBackoff time.Duration
	// Jitter draws each retry's actual sleep from [0, cap), where cap is the
	// current backoff (full jitter): when the workers die under load, the
	// concurrent callers that all failed together would otherwise re-dial in
	// lockstep every backoff doubling — a retry storm hammering the workers
	// just as they restart. nil defaults to a thread-safe uniform draw; tests
	// inject a deterministic source.
	Jitter func(max time.Duration) time.Duration
	// Precision is the tier every worker serves at (zero value = f64, the
	// bit-pinned reference). The whole fleet runs one tier: the handshake
	// rejects a worker bootstrapped at a different tier, and a racing
	// request against a mismatched worker is a 409 conflict.
	Precision kernel.Precision
}

const (
	defaultRetries      = 2
	defaultRetryBackoff = 5 * time.Millisecond
)

// check validates the parts of cfg a worker reads against (m, g) before
// anything is built.
func (cfg Config) check(m *core.Model, g *graph.Graph) error {
	switch {
	case g.F() != m.FeatureDim:
		return fmt.Errorf("shard: graph feature dim %d != model %d", g.F(), m.FeatureDim)
	case !cfg.Precision.Valid():
		return fmt.Errorf("shard: unknown precision tier %d", int(cfg.Precision))
	}
	return nil
}

// Router fronts a pool of interchangeable workers with the same Infer /
// ApplyDelta surface as a single core.Deployment (both satisfy
// serve.Backend). It owns the source-of-truth graph — delta validation and
// ServingGraph read it — and the delta log; the workers hold the bulky
// hot-path state, reached exclusively through the Transport: in-process
// (NewRouter) or remote worker processes (NewRouterTransport).
//
// Failure handling is one state machine over one record per worker (see
// endpoint). Every worker answers for every node, so the pool is up while
// any worker is. A call that fails transiently takes that worker out of
// rotation and moves to the next; a round in which every worker failed is
// retried with jittered exponential backoff and then — while the background
// prober runs — fails fast with ErrUnavailable (the serving layer's 503)
// instead of re-paying timeouts per request. A delta reaches no worker when
// it commits: every worker is behind until its next call or probe, which
// heals it by replaying the router's delta log to it — the same way a
// restarted worker rejoins without the router restarting.
type Router struct {
	model  *core.Model
	global *graph.Graph
	prec   kernel.Precision
	// bootGlobalN is the node count at bootstrap. Workers report the count
	// they bootstrapped from (it never changes on the worker — deltas are
	// tracked by version), so validation compares against this, not the
	// grown r.global.N().
	bootGlobalN int

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

	// endpoints are the workers, by transport index; rr is the round-robin
	// counter candidates rotates them by.
	endpoints []*endpoint
	rr        atomic.Uint64
	// failovers counts Infer rounds that moved on to another worker after
	// one failed; extraTries the attempts beyond each round's first.
	failovers, extraTries atomic.Uint64

	probing   atomic.Bool
	probeStop chan struct{}
	probeDone chan struct{}
}

// NewRouter builds cfg.Shards in-process workers, each over its own clone
// of g, behind a LocalTransport. The Router takes ownership of g: all
// subsequent mutations must go through Router.ApplyDelta.
func NewRouter(m *core.Model, g *graph.Graph, cfg Config) (*Router, error) {
	workers := make([]*Worker, max(cfg.Shards, 0)) // NewRouterTransport rejects < 1
	for i := range workers {
		var err error
		if workers[i], err = NewWorker(m, g, cfg, i); err != nil {
			return nil, err
		}
	}
	return NewRouterTransport(m, g, cfg, NewLocalTransport(workers))
}

// NewRouterTransport builds a router over cfg.Shards already-running
// workers reached through t at indices 0..cfg.Shards−1. It performs a
// health handshake with every worker, verifying its tier and its bootstrap
// and current node counts at version 1; the router starts as long as one
// worker passes, and the rest rejoin through later probes. An
// HTTPTransport's addresses label the workers in status reports. The router
// takes ownership of t (Close closes it) and of g, exactly like NewRouter.
func NewRouterTransport(m *core.Model, g *graph.Graph, cfg Config, t Transport) (*Router, error) {
	if err := cfg.check(m, g); err != nil {
		return nil, err
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least one worker, have %d", cfg.Shards)
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
		transport:   t,
		retries:     cfg.Retries,
		backoff:     cfg.RetryBackoff,
		jitter:      cfg.Jitter,
		expNodes:    g.N(),
		endpoints:   make([]*endpoint, cfg.Shards),
	}
	r.version.Store(1) // fresh build = version 1, matching core.Deployment
	var urls []string
	if h, ok := t.(*HTTPTransport); ok {
		urls = h.urls
	}
	for i := range r.endpoints {
		r.endpoints[i] = &endpoint{index: i, info: HealthInfo{Version: 1}}
		if i < len(urls) {
			r.endpoints[i].addr = urls[i]
		}
	}
	if err := r.handshake(context.Background()); err != nil {
		return nil, fmt.Errorf("shard handshake: %w", err)
	}
	return r, nil
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
// context with one call to the next up worker in round-robin order; the
// whole request goes in request order. Every worker serves the whole graph
// at the router's version, so its result is returned unchanged: predictions,
// depths and histogram equal the unsharded engine's InferContext, MACs zero.
// Safe for concurrent callers.
//
// A request fails over to any other worker and fails with an error wrapping
// ErrUnavailable (HTTP 503 at the serving layer) only when no worker
// answers after retries — fail fast, never hang; the context's deadline
// bounds every transport call.
func (r *Router) InferContext(ctx context.Context, targets []int, opt core.InferenceOptions) (*core.Result, error) {
	if err := opt.Validate(r.model); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return &core.Result{NodesPerDepth: make([]int, r.model.K+1)}, nil
	}
	n := r.global.N()
	for _, v := range targets {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("shard: node %d outside [0,%d)", v, n)
		}
	}
	tr := obs.FromContext(ctx)
	at := tr.Begin()
	res, i, err := r.infer(ctx,
		&InferRequest{Version: r.version.Load(), Targets: targets, Opt: opt, Precision: r.prec})
	tr.End(obs.StageFanout, 0, i, at)
	return res, err
}

// StartHealthProbe launches the background prober: every interval it
// probes each worker through the transport, marking it up or down (with no
// worker up, requests fail fast with ErrUnavailable until one recovers) and
// replaying the delta log to workers found behind the router's graph
// version. No-op if interval ≤ 0 or already probing; Close stops it.
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

// Probe health-checks every worker once (the background prober calls it
// each interval; tests call it directly to make recovery deterministic);
// probeEndpoint is the check.
func (r *Router) Probe(ctx context.Context) {
	for _, ep := range r.endpoints {
		r.probeEndpoint(ctx, ep)
	}
}

// Describe snapshots the fleet for the serving layer (serve.Backend): the
// graph version and tier, one row per worker, the scratch footprint and
// layer counters summed over every worker's last health report, and the
// failover counters. /healthz's verdict, the /stats shards block and the
// per-worker gauges are all read off one such snapshot, so they cannot
// contradict each other.
func (r *Router) Describe() core.Info {
	info := core.Info{Version: r.Version(), Precision: r.prec,
		Shards:    make([]core.ShardStatus, len(r.endpoints)),
		Failovers: r.failovers.Load(), ReplicaRetries: r.extraTries.Load()}
	for i, ep := range r.endpoints {
		ep.mu.Lock()
		st := core.ShardStatus{Shard: i, Addr: ep.addr, Up: ep.state == stateUp,
			State: ep.state.String(), Version: ep.info.Version}
		if !st.Up && ep.err != nil {
			st.Err = ep.err.Error()
		}
		info.ScratchBytes += ep.info.ScratchBytes
		info.Hop1.Add(ep.info.Hop1)
		ep.mu.Unlock()
		info.Shards[i] = st
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

// localWorker reaches an in-process worker directly (tests inspect worker
// state through it; only valid on routers built over a LocalTransport).
func (r *Router) localWorker(i int) *Worker {
	return r.transport.(*LocalTransport).workers[i]
}

// ServingGraph returns the serving graph (serve.Backend): the one delta
// validation reads.
func (r *Router) ServingGraph() *graph.Graph { return r.global }

// Shards reports the worker count.
func (r *Router) Shards() int { return len(r.endpoints) }

// Version reports the router's monotone graph version: 1 for a fresh
// build, +1 per effective ApplyDelta.
func (r *Router) Version() uint64 { return r.version.Load() }

// ShardSize describes one worker for observability: the nodes it answers
// for and the nodes it holds beyond them.
//
// Deprecated: every worker answers for the whole graph. Only the benchmark
// ladder calls Sizes; it goes with ROADMAP item 1(iv).
type ShardSize struct {
	Owned, Halo int
}

// Sizes reports each worker as answering for all N nodes with no halo.
//
// Deprecated: every worker answers for the whole graph. Only the benchmark
// ladder calls it; it goes with ROADMAP item 1(iv).
func (r *Router) Sizes() []ShardSize {
	out := make([]ShardSize, len(r.endpoints))
	for i := range out {
		out[i] = ShardSize{Owned: r.global.N()}
	}
	return out
}
