// Package serve turns an inference backend — a single core.Deployment or a
// sharded shard.Router — into a long-lived serving daemon: an HTTP JSON
// front-end with a result cache and online graph deltas. Every request is
// its own backend call: the caller runs it on its own goroutine, and a
// client that wants Algorithm 1's per-batch costs shared sends its targets
// as one batch.
//
// Three mechanisms make the daemon production-shaped (see ARCHITECTURE.md
// for the end-to-end picture):
//
//   - Result caching: with Config.CacheSize > 0 each target's final
//     prediction and realized depth is cached per node in the server's one
//     internal/cache.Cache — whatever the backend, a deployment or a router
//     — consulted before the backend call and filled after it. Real
//     traffic is Zipf-skewed, so hot nodes skip BFS,
//     propagation and classification entirely; answers stay bit-identical
//     because Infer is batch-invariant and ApplyDelta evicts stale entries
//     exactly, inside its write-locked section (Server.invalidate; the
//     invalidation contract is in ARCHITECTURE.md).
//
//   - Graph deltas: POST /nodes and POST /edges append unseen nodes and
//     fresh edges into the serving graph while the daemon runs. Deltas take
//     the server's write lock and go through Deployment.ApplyDelta, whose
//     incremental refresh touches only the rows whose neighborhoods changed
//     and stays bit-identical to a full Refresh.
//
//   - Observability: everything is counted once, in the server's
//     internal/obs registry (served at /metrics). /stats is a JSON view
//     computed from those instruments when it is read — request and latency
//     percentiles, MAC totals, cache counters — so the two endpoints cannot
//     disagree; /healthz is a cheap liveness probe.
//
// Concurrency contract: a request's id validation, cache reads, backend
// call and cache fill run in one section under the read lock — any number
// in flight, matching Deployment.Infer's thread safety — while graph deltas
// hold the write lock, giving them the exclusive access Refresh/ApplyDelta
// and cache invalidation require. The admission budget and the cache's lock
// shards have their own internal locks, and the counters are atomics.
package serve

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/sparse"
)

// Config parametrizes the daemon.
type Config struct {
	// Opt is the operating point requests are inferred with. BatchSize is
	// ignored: a request's cache misses always run as one Algorithm 1 batch,
	// so its targets share one supporting ball.
	Opt core.InferenceOptions
	// Deprecated: nothing reads MaxBatch; every request is its own backend
	// call.
	MaxBatch int
	// Deprecated: nothing reads MaxWait; no request waits for batch mates.
	MaxWait time.Duration
	// MaxBody caps the accepted HTTP request body size in bytes
	// (http.MaxBytesReader); oversized payloads get a 413 (Request Entity
	// Too Large), never an unbounded read. ≤0 defaults to 8 MiB — roomy for feature-row appends,
	// small enough that a hostile client cannot balloon the daemon's heap.
	MaxBody int64
	// CacheSize is the per-node result cache's capacity in entries; ≤0
	// disables caching (the default — hot-node reuse is an opt-in because
	// it retains answers across requests). The invalidation policy is
	// derived from Opt: radius-TMax ball eviction for ModeFixed, full flush
	// on effective deltas for the NAP modes (whose decisions consult the
	// globally coupled stationary state).
	CacheSize int
	// MaxPending is the admission budget: the total number of targets that
	// may be in backend calls at once. When the budget is full, new requests
	// are rejected immediately with ErrOverloaded (HTTP 429 + Retry-After) —
	// a reject costs microseconds, never an Infer — instead of piling onto
	// the backend. ≤0 disables admission control (the pending_targets gauge
	// still tracks occupancy). Under pressure (budget more than half full) a
	// tenant is clamped to its weighted fair share of the budget, so one hot
	// tenant cannot starve the others (see internal/qos.FairBudget).
	MaxPending int
	// DefaultDeadline is the per-request deadline applied when the caller
	// supplies none (no context deadline, no X-Deadline-Ms header); 0
	// means no default. It is also the overload detector's latency trip
	// wire: backend calls slower than it on average trip degraded mode.
	DefaultDeadline time.Duration
	// MaxDeadline caps the deadline a client may request via the
	// X-Deadline-Ms header (tighter requests are honored, looser ones are
	// clamped); 0 means no cap. Library callers passing their own context
	// deadline are not clamped — they already own their context.
	MaxDeadline time.Duration
	// Quotas holds per-tenant token-bucket rate limits and fairness
	// weights (requests are attributed by the X-Tenant header, or the
	// tenant argument of ClassifyContext). Each request is charged one
	// token per target node, so rates are targets/second — a tenant cannot
	// stay under a per-request quota while inflating its batch sizes. A
	// request with more targets than the tenant's burst is rejected as a
	// client error (400), since no amount of waiting refills past the
	// burst. nil admits everything at weight 1. Build one with
	// qos.ParseQuotas.
	Quotas *qos.Quotas
	// TraceRing bounds the ring of recent completed request traces served
	// at GET /debug/traces; ≤0 defaults to 64.
	TraceRing int
	// SlowTrace is the slow-request log threshold: a request slower than
	// this is logged via Logger with its trace id, tenant, outcome and
	// duration. 0 disables the slow log.
	SlowTrace time.Duration
	// Logger receives the slow-request log records; nil falls back to
	// slog.Default.
	Logger *slog.Logger
	// Shed enables degraded mode: when the overload detector trips
	// (pending work ≥90% of MaxPending, or the backend-call latency EWMA
	// exceeds DefaultDeadline), requests that would need a fresh NAP
	// inference are rejected with ErrShed (429) while cache hits — and, in
	// ModeFixed, all requests (strictly local support, the cheap path) —
	// keep being served. While degraded, one sheddable request per probe
	// interval (the detector's, default DefaultDeadline) is still admitted:
	// its call feeds the latency EWMA, giving the latency trip a recovery
	// path even when shedding has stopped all other calls. The detector
	// clears with hysteresis (≤50% of the budget, latency below half the
	// trip wire) and the transition is visible in /stats.
	Shed bool
}

// DefaultMaxBody is the request-body cap applied when Config.MaxBody ≤ 0.
const DefaultMaxBody = 8 << 20

func (c Config) withDefaults() Config {
	c.Opt.BatchSize = 0
	if c.MaxBody <= 0 {
		c.MaxBody = DefaultMaxBody
	}
	return c
}

// Backend is the inference engine a Server fronts. Both the single-process
// core.Deployment and the sharded shard.Router satisfy it, and the daemon —
// admission, caching, delta routing, stats — takes one code path through
// either. The server imposes the concurrency contract both implementations
// share: any number of concurrent InferContext calls (read lock), exclusive
// ApplyDelta (write lock).
type Backend interface {
	// InferContext classifies the targets (global node ids); safe for
	// concurrent callers. The context carries the request's trace and
	// deadline but not its cancellation: a router forwards both to its
	// worker transports, the engine itself only records spans.
	InferContext(ctx context.Context, targets []int, opt core.InferenceOptions) (*core.Result, error)
	// ApplyDelta grows the serving graph; must be exclusive with
	// InferContext. It returns either the result of a committed delta or
	// an error with nothing changed.
	ApplyDelta(d graph.Delta) (*graph.DeltaResult, error)
	// Adjacency is the served graph's adjacency, deltas merged in: all the
	// server reads of the graph. Under the read lock it takes the node
	// count (Rows) and edge count (NNZ/2) from it and validates ids against
	// it; under the write lock it walks it for cache eviction.
	Adjacency() *sparse.CSR
	// Describe snapshots everything else the server reports — version,
	// precision, scratch bytes, memo counters, fleet health — as plain
	// data. Safe at any time.
	Describe() core.Info
}

// Server is the serving daemon's state: one backend, one admission budget,
// one result cache, one registry of counters. Create it with New (single
// deployment) or NewBackend (any Backend, e.g. a shard.Router) and expose
// Handler over HTTP, or call Classify/ApplyDelta directly (the benchmarks
// do, to measure the serving path without HTTP overhead).
type Server struct {
	backend Backend
	cfg     Config
	start   time.Time

	// graphMu is the serving read/write lock: requests hold it shared from
	// id validation to cache fill, graph deltas hold it exclusive (the
	// access Refresh needs).
	graphMu sync.RWMutex

	// budget bounds the targets in backend calls (Config.MaxPending;
	// unbounded when ≤ 0 but still tracked for the pending_targets gauge);
	// detector watches budget depth and the backend-call latency EWMA to
	// drive degraded mode. closed refuses new work after Close.
	budget   *qos.FairBudget
	detector *qos.Detector
	closed   atomic.Bool

	// cache is the result cache, nil when Config.CacheSize ≤ 0: requests
	// consult it before their backend call and fill it after, under the
	// read lock, and ApplyDelta evicts from it under the write lock.
	cache *cache.Cache
	// obs is the observability bundle (metrics registry + trace ring) and
	// m the serving counters registered on it; /stats is computed from both.
	obs *obs.Obs
	m   *counters
}

// New wraps a single deployment. The deployment must not be mutated behind
// the server's back afterwards — all graph changes go through ApplyDelta.
func New(dep *core.Deployment, cfg Config) *Server {
	return NewBackend(dep, cfg)
}

// NewBackend wraps any inference backend. Like New, the backend's graph
// must only be mutated through the server's ApplyDelta from then on.
func NewBackend(b Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		backend: b,
		cfg:     cfg,
		start:   time.Now(),
		budget:  qos.NewFairBudget(cfg.MaxPending, cfg.Quotas.Weight),
		// The latency loop trips when backend calls take longer than the
		// default deadline (every caller would expire anyway); depth
		// watermarks are the qos defaults (trip ≥90% of the budget, clear
		// ≤50%).
		detector: qos.NewDetector(qos.DetectorConfig{TripLatency: cfg.DefaultDeadline}),
		obs: obs.New(obs.Options{
			RingSize:      cfg.TraceRing,
			SlowThreshold: cfg.SlowTrace,
			Logger:        cfg.Logger,
		}),
	}
	if cfg.CacheSize > 0 {
		s.cache = cache.New(cfg.CacheSize)
	}
	s.m = newCounters(s.obs)
	s.registerGauges()
	return s
}

// Classify answers one request for the given target nodes with no
// deadline, tenant attribution or cancellation — ClassifyContext with a
// background context. See ClassifyContext for the full contract.
func (s *Server) Classify(targets []int) (preds, depths []int, err error) {
	return s.ClassifyContext(context.Background(), targets, "")
}

// ClassifyContext answers one request for the given target nodes under the
// caller's context and tenant identity: cached targets are answered from
// the result cache, the rest in one backend call that runs on the caller's
// goroutine. It returns the request's predictions and personalized depths,
// in target order. Answers are bit-identical to uncached serving (Infer is
// batch-invariant and deltas invalidate stale entries), and a request is
// atomic with respect to deltas: all its answers hold for one graph.
//
// Overload control can refuse the request before any inference happens:
// ErrQuota when the tenant's token bucket cannot cover one token per
// target, ErrOverloaded when the admission budget (Config.MaxPending) is
// full or the tenant is over its fair share of it, ErrShed when degraded
// mode is shedding un-cached NAP work, ErrShuttingDown after Close. A
// request that can never be admitted — more targets than the tenant's
// quota burst or than the whole admission budget — is a non-retryable
// validation error (HTTP 400) instead. A context that is already done when
// the call would start returns the context's error without an Infer; one
// that expires during the call returns its error once the call ends (the
// backend sees the deadline, not the cancellation). Config.DefaultDeadline,
// when set, bounds requests whose context carries no deadline of its own.
func (s *Server) ClassifyContext(ctx context.Context, targets []int, tenant string) ([]int, []int, error) {
	if len(targets) == 0 {
		return nil, nil, nil
	}
	start := time.Now()
	ten := s.m.tenant(tenant)
	ten.requests.Inc()
	ten.targets.Add(uint64(len(targets)))
	tr := s.obs.StartTraceAt(start)
	preds, depths, cached, err := s.classify(ctx, start, tr, targets, tenant)
	outcome := outcomeOf(err)
	if cached {
		outcome = "cached"
	}
	switch outcome {
	case "deadline":
		ten.deadlineMisses.Inc()
		fallthrough
	case "ok", "cached":
		// Cache hits are the fast tail of the distribution and deadline
		// misses the slow one: both land in the latency histograms, or the
		// percentiles would report only the requests in between.
		ten.latency.Observe(time.Since(start).Seconds())
	}
	s.obs.FinishTrace(tr, tenant, outcome, len(targets))
	return preds, depths, err
}

// outcomeOf names a request's nai_requests_total outcome from its error.
func outcomeOf(err error) string {
	var badReq *badRequestError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQuota):
		return "rejected"
	case errors.Is(err, ErrShed):
		return "shed"
	case errors.As(err, &badReq):
		return "invalid"
	default:
		return "error"
	}
}

// classify is ClassifyContext's request path; cached reports a request
// answered entirely from the result cache.
func (s *Server) classify(ctx context.Context, start time.Time, tr *obs.Trace, targets []int, tenant string) (preds, depths []int, cached bool, err error) {
	// Tenant quota first: it is the cheapest check and a tenant over its
	// rate limit should not even get cache reads. The charge is one token
	// per target (quotas meter inference work, not calls), so a request the
	// bucket's burst can never cover is a permanent client error — a 429
	// would invite a retry loop that can never succeed.
	charge := float64(len(targets))
	if maxc := s.cfg.Quotas.MaxCharge(tenant); charge > maxc {
		return nil, nil, false, badRequestf("serve: request has %d targets, tenant %q quota burst admits at most %.0f", len(targets), tenant, maxc)
	}
	if ok, retry := s.cfg.Quotas.AllowAt(start, tenant, charge); !ok {
		return nil, nil, false, &retryableError{err: ErrQuota, retry: retry}
	}
	if s.cfg.DefaultDeadline > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
			defer cancel()
		}
	}
	// Validate ids against the current graph: Infer indexes the adjacency
	// directly, so an out-of-range id must be rejected here. The read lock
	// covers everything from here to the cache fill, so a delta can never
	// slip between lookup, compute and fill — a fill can never resurrect an
	// answer a delta invalidated.
	s.graphMu.RLock()
	defer s.graphMu.RUnlock()
	n := s.backend.Adjacency().Rows
	for _, v := range targets {
		if v < 0 || v >= n {
			return nil, nil, false, badRequestf("serve: node %d outside [0,%d)", v, n)
		}
	}
	miss, missPos := targets, []int(nil)
	if s.cache != nil {
		miss = nil
		preds = make([]int, len(targets))
		depths = make([]int, len(targets))
		for i, v := range targets {
			if e, ok := s.cache.Get(v); ok {
				preds[i], depths[i] = int(e.Pred), int(e.Depth)
			} else {
				miss = append(miss, v)
				missPos = append(missPos, i)
			}
		}
		if len(miss) == 0 {
			return preds, depths, true, nil
		}
	}
	// Degraded mode: cache hits were already answered above and ModeFixed
	// misses have strictly local support (the cheap path NAP makes
	// distinguishable), so only un-cached NAP work is shed. ShedAt lets one
	// probe per interval through so calls keep feeding the latency EWMA —
	// the signal's only recovery path once traffic is being shed.
	if s.cfg.Shed && s.cfg.Opt.Mode != core.ModeFixed && s.detector.ShedAt(start) {
		return nil, nil, false, ErrShed
	}
	res, err := s.infer(ctx, start, tr, miss, tenant)
	if err != nil {
		return nil, nil, false, err
	}
	if missPos == nil {
		return res.Pred, res.Depths, false, nil
	}
	for k, i := range missPos {
		preds[i], depths[i] = res.Pred[k], res.Depths[k]
	}
	return preds, depths, false, nil
}

// infer runs the backend call for a request's cache misses: it takes their
// targets from the admission budget for the call's duration, drops a
// request whose context is already done, and fills the result cache from
// the answer. Callers hold graphMu.RLock.
func (s *Server) infer(ctx context.Context, start time.Time, tr *obs.Trace, targets []int, tenant string) (*core.Result, error) {
	n := len(targets)
	if cap := s.budget.Capacity(); cap > 0 && n > cap {
		// Larger than the whole budget: Acquire would refuse this request
		// forever, so a retryable 429 would be a lie — reject it as the
		// client error it is (400), telling the caller the real bound.
		return nil, badRequestf("serve: request has %d targets, admission budget holds at most %d (split the request or raise -max-pending)", n, cap)
	}
	if !s.budget.Acquire(tenant, n) {
		// Fast 429: the reject costs a mutex acquire, never an Infer. The
		// retry hint is one call's expected cost — by then a call's worth
		// of budget has drained.
		s.detector.Update(s.budget.Pending(), s.budget.Capacity())
		return nil, &retryableError{err: ErrOverloaded, retry: s.detector.FlushEWMA()}
	}
	defer func() {
		s.budget.Release(tenant, n)
		s.detector.Update(s.budget.Pending(), s.budget.Capacity())
	}()
	s.detector.Update(s.budget.Pending(), s.budget.Capacity())
	if s.closed.Load() {
		return nil, ErrShuttingDown
	}
	if err := ctx.Err(); err != nil {
		s.m.dropped.Inc()
		return nil, err
	}

	// The backend gets the request's trace, so its stages (engine, router
	// call, transport) record into it, and the request's deadline, so a
	// router stops waiting on its workers once the caller would have given
	// up — but not the cancellation of a client that hung up early.
	bctx := obs.ContextWithTrace(context.WithoutCancel(ctx), tr)
	if dl, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		bctx, cancel = context.WithDeadline(bctx, dl)
		defer cancel()
	}
	at := time.Now()
	tr.EndAt(obs.StageQueue, 0, -1, start, at)
	res, err := s.backend.InferContext(bctx, targets, s.cfg.Opt)
	if err == nil && s.cache != nil {
		for i, v := range targets {
			s.cache.Put(v, cache.Entry{Pred: int32(res.Pred[i]), Depth: int32(res.Depths[i])})
		}
	}
	s.detector.ObserveFlush(time.Since(at))

	// An errored call stays on the books — the work was attempted — under
	// result="error".
	s.m.inferTargets.Add(uint64(n))
	if err != nil {
		s.m.inferErr.Inc()
	} else {
		s.m.inferOK.Inc()
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return res, err
}

// ApplyDelta applies a graph mutation under the write lock, waiting for
// in-flight requests to finish and blocking new ones, then refreshes
// the backend incrementally. A committed delta is followed before the lock
// is released: stale cache entries evicted, the delta counted.
func (s *Server) ApplyDelta(d graph.Delta) (*graph.DeltaResult, error) {
	s.graphMu.Lock()
	defer s.graphMu.Unlock()
	dr, err := s.backend.ApplyDelta(d)
	if err != nil {
		return nil, err
	}
	s.invalidate(dr)
	s.m.deltas.Inc()
	s.m.nodesAdded.Add(uint64(dr.NumNew))
	s.m.rowsDirtied.Add(uint64(len(dr.Dirty)))
	return dr, nil
}

// invalidate is the result cache's whole invalidation policy, applied after
// the serving graph absorbed dr and before any reader runs again (callers
// hold the write lock). A delta that changed nothing evicts nothing.
//
//   - ModeFixed answers depend only on the radius-TMax supporting ball, and
//     a delta only changes adjacency values within one hop of its dirty rows,
//     so a reverse-BFS of radius TMax from the dirty rows — over the merged
//     graph, so new edges are traversed — covers every node whose answer
//     could have changed. Exactly that ball is evicted; the rest stays hot.
//   - NAP answers (distance/gate) also compare against the stationary state
//     X(∞), whose rank-1 decomposition couples every node to the global
//     edge/node mass (Scale = 1/(2m+n) and the shared weighted feature sum),
//     so any effective delta shifts every node's decision threshold and the
//     whole cache is flushed.
//
// One cache serves a router as well as a deployment: lookups and fills
// happen in this process either way, keyed by global id, and internal/cache
// stripes its own locks. The policy is pinned by the equivalence tests,
// including a remote delta flipping a NAP decision outside the dirty ball —
// the reason the ball eviction alone would be wrong.
func (s *Server) invalidate(dr *graph.DeltaResult) {
	if s.cache == nil || len(dr.Dirty) == 0 {
		return
	}
	if s.cfg.Opt.Mode != core.ModeFixed {
		s.cache.Flush()
		return
	}
	s.cache.Invalidate(graph.Ball(s.backend.Adjacency(), dr.Dirty, s.cfg.Opt.TMax))
}

// Close refuses every later request with ErrShuttingDown (HTTP 503) before
// it reaches the backend. Requests already in a backend call finish with
// real answers on their own goroutines.
func (s *Server) Close() { s.closed.Store(true) }
