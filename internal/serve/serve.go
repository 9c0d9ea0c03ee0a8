// Package serve turns an inference backend — a single core.Deployment or a
// sharded shard.Router — into a long-lived serving daemon: an HTTP JSON
// front-end with a result cache, request coalescing and online graph
// deltas.
//
// Four mechanisms make the daemon production-shaped (see ARCHITECTURE.md
// for the end-to-end picture):
//
//   - Result caching: with Config.CacheSize > 0 each target's final
//     prediction and realized depth is cached per node in the server's one
//     internal/cache.Cache — whatever the backend, a deployment or a router
//     — consulted before the coalescer and filled after each flush. Real
//     traffic is Zipf-skewed, so hot nodes skip BFS, extraction,
//     propagation and classification entirely; answers stay bit-identical
//     because Infer is batch-invariant and ApplyDelta evicts stale entries
//     exactly, inside its write-locked section (Server.invalidate; the
//     invalidation contract is in ARCHITECTURE.md).
//
//   - Coalescing: concurrent single-node requests are micro-batched into one
//     Infer call (up to Config.MaxBatch targets, waiting at most
//     Config.MaxWait for batch mates; at MaxWait ≤ 0 nothing waits and every
//     request is its own call), so the per-batch costs Algorithm 1
//     pays — the supporting-set BFS, the compaction of the ball, the stationary
//     rows and the classifier GEMMs — are amortized across callers instead
//     of being re-paid per request.
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
//     percentiles, MAC totals, cache counters, the measured coalescing
//     efficiency — so the two endpoints cannot disagree; /healthz is a cheap
//     liveness probe.
//
// Concurrency contract: inference (coalesced flushes) and cache traffic
// (lookups before the coalescer, fills after a flush) run under the read
// lock — any number in flight, matching Deployment.Infer's thread safety —
// while graph deltas hold the write lock, giving them the exclusive access
// Refresh/ApplyDelta and cache invalidation require. Everything else
// (pending queues, the cache's internal lock shards) has its own internal
// locks, and the counters are atomics.
package serve

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qos"
)

// Config parametrizes the daemon.
type Config struct {
	// Opt is the operating point coalesced batches are inferred with.
	// BatchSize is ignored: a coalesced batch always runs as one Algorithm 1
	// batch, since sharing one supporting ball is the point of coalescing.
	Opt core.InferenceOptions
	// MaxBatch is the window-flush threshold: a window holding MaxBatch or
	// more targets flushes immediately instead of waiting out MaxWait.
	// Requests are never split across flushes, so a single request larger
	// than MaxBatch still runs as one oversized Infer batch (per-target
	// results are batch-invariant; only that flush's latency and scratch
	// ball grow). ≤0 defaults to 64.
	MaxBatch int
	// MaxWait bounds how long a request waits for batch mates before the
	// window flushes anyway. ≤0 disables coalescing: every request flushes
	// alone, the moment it is admitted — a request that arrives while
	// another flush runs does not wait for it — so without a result cache
	// coalesce_rate is exactly 1.
	MaxWait time.Duration
	// MaxBody caps the accepted HTTP request body size in bytes
	// (http.MaxBytesReader); oversized payloads get a 400, never an
	// unbounded read. ≤0 defaults to 8 MiB — roomy for feature-row appends,
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
	// may be queued in the coalescing window or in flight in a flush at
	// once. When the budget is full, new requests are rejected immediately
	// with ErrOverloaded (HTTP 429 + Retry-After) — a reject costs
	// microseconds, never an Infer — instead of parking unboundedly. ≤0
	// disables admission control (the pending_targets gauge still tracks
	// occupancy). Under pressure (budget more than half full) a tenant is
	// clamped to its weighted fair share of the budget, so one hot tenant
	// cannot starve the window (see internal/qos.FairBudget).
	MaxPending int
	// DefaultDeadline is the per-request deadline applied when the caller
	// supplies none (no context deadline, no X-Deadline-Ms header); 0
	// means no default. Deadlines drive early window flushes (flush when
	// the oldest waiter's remaining budget drops below the EWMA flush
	// cost) and the overload detector's latency trip wire.
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
	// (pending work ≥90% of MaxPending, or the flush-latency EWMA exceeds
	// DefaultDeadline), requests that would need a fresh NAP inference are
	// rejected with ErrShed (429) while cache hits — and, in ModeFixed,
	// all requests (strictly local support, the cheap path) — keep being
	// served. While degraded, one sheddable request per probe interval
	// (the detector's, default DefaultDeadline) is still admitted: its
	// flush feeds the latency EWMA, giving the latency trip a recovery
	// path even when shedding has stopped all other flushes. The detector
	// clears with hysteresis (≤50% of the budget, latency below half the
	// trip wire) and the transition is visible in /stats.
	Shed bool
}

// DefaultMaxBody is the request-body cap applied when Config.MaxBody ≤ 0.
const DefaultMaxBody = 8 << 20

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBody <= 0 {
		c.MaxBody = DefaultMaxBody
	}
	return c
}

// Backend is the inference engine a Server fronts. Both the single-process
// core.Deployment and the sharded shard.Router satisfy it, and the daemon —
// coalescing, caching, delta routing, stats — takes one code path through
// either. The server imposes the concurrency contract both implementations
// share: any number of concurrent InferContext calls (read lock), exclusive
// ApplyDelta (write lock).
type Backend interface {
	// InferContext classifies the targets (global node ids); safe for
	// concurrent callers. The context carries the flush's trace and the
	// loosest live waiter's deadline: a router forwards both to its worker
	// transports, the engine itself only records spans.
	InferContext(ctx context.Context, targets []int, opt core.InferenceOptions) (*core.Result, error)
	// ApplyDelta grows the serving graph; must be exclusive with
	// InferContext. A non-nil result beside an error means the delta is
	// committed all the same (a router whose worker rejected its share).
	ApplyDelta(d graph.Delta) (*graph.DeltaResult, error)
	// ServingGraph is the merged graph being served. Under the read lock
	// the server takes node and edge counts from it and validates ids
	// against it; under the write lock it walks it for cache eviction.
	ServingGraph() *graph.Graph
	// Describe snapshots everything else the server reports — version,
	// precision, scratch bytes, memo counters, fleet health — as plain
	// data. Safe at any time.
	Describe() core.Info
}

// Server is the serving daemon's state: one backend, one coalescer, one
// result cache, one registry of counters. Create it with New (single
// deployment) or NewBackend (any Backend, e.g. a shard.Router) and expose
// Handler over HTTP, or call Classify/ApplyDelta directly (the benchmarks
// do, to measure coalescing without HTTP overhead).
type Server struct {
	backend Backend
	cfg     Config
	co      *coalescer
	start   time.Time
	// cache is the result cache, nil when Config.CacheSize ≤ 0: Classify
	// consults it before the coalescer, flushes fill it under the read
	// lock and ApplyDelta evicts from it under the write lock.
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
	s.co = newCoalescer(s)
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
// the result cache, the rest coalesce with concurrent requests into a
// shared Infer batch. It blocks until the batch containing the request's
// misses flushes — or the context is done, whichever comes first — and
// returns the request's own predictions and personalized depths, in target
// order. Answers are bit-identical to uncached serving (Infer is
// batch-invariant and deltas invalidate stale entries); during a
// concurrent delta each target's answer is individually exact for some
// instant within the call — the same per-target guarantee coalescing
// already gives requests that straddle a delta.
//
// Overload control can refuse the request before any inference happens:
// ErrQuota when the tenant's token bucket cannot cover one token per
// target, ErrOverloaded when the admission budget (Config.MaxPending) is
// full or the tenant is over its fair share of it, ErrShed when degraded
// mode is shedding un-cached NAP work, ErrShuttingDown after Close. A
// request that can never be admitted — more targets than the tenant's
// quota burst or than the whole admission budget — is a non-retryable
// validation error (HTTP 400) instead. A context that expires before the
// flush starts returns the context's error and the request's targets never
// occupy Infer batch slots. Config.DefaultDeadline, when set, bounds
// requests whose context carries no deadline of its own.
func (s *Server) ClassifyContext(ctx context.Context, targets []int, tenant string) (preds, depths []int, err error) {
	if len(targets) == 0 {
		return nil, nil, nil
	}
	start := time.Now()
	ten := s.m.tenant(tenant)
	ten.requests.Inc()
	ten.targets.Add(uint64(len(targets)))
	tr := s.obs.StartTraceAt(start)
	// Tenant quota first: it is the cheapest check and a tenant over its
	// rate limit should not even get cache reads. The charge is one token
	// per target (quotas meter inference work, not calls), so a request the
	// bucket's burst can never cover is a permanent client error — a 429
	// would invite a retry loop that can never succeed.
	charge := float64(len(targets))
	if maxc := s.cfg.Quotas.MaxCharge(tenant); charge > maxc {
		s.obs.FinishTrace(tr, tenant, "invalid", len(targets))
		return nil, nil, badRequestf("serve: request has %d targets, tenant %q quota burst admits at most %.0f", len(targets), tenant, maxc)
	}
	if ok, retry := s.cfg.Quotas.AllowAt(start, tenant, charge); !ok {
		s.obs.FinishTrace(tr, tenant, "rejected", len(targets))
		return nil, nil, &retryableError{err: ErrQuota, retry: retry}
	}
	if s.cfg.DefaultDeadline > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
			defer cancel()
		}
	}
	// Validate ids against the current graph before queueing: Infer indexes
	// the adjacency directly, so an out-of-range id must be rejected here.
	// Deltas only append, so an id valid now stays valid at flush time.
	// Cache lookups share the read lock so a lookup cannot interleave with
	// an in-progress invalidation.
	s.co.graphMu.RLock()
	n := s.backend.ServingGraph().N()
	for _, v := range targets {
		if v < 0 || v >= n {
			s.co.graphMu.RUnlock()
			s.obs.FinishTrace(tr, tenant, "invalid", len(targets))
			return nil, nil, badRequestf("serve: node %d outside [0,%d)", v, n)
		}
	}
	var miss, missPos []int
	if s.cache != nil {
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
	}
	s.co.graphMu.RUnlock()

	if s.cache != nil && len(miss) == 0 {
		// Fully served from cache: the request never touches the coalescer.
		// Its latency still lands in the global and the per-tenant histogram
		// — cache hits are the fast tail of the distribution, and excluding
		// them would silently inflate every reported percentile.
		ten.latency.Observe(time.Since(start).Seconds())
		s.obs.FinishTrace(tr, tenant, "cached", len(targets))
		return preds, depths, nil
	}
	if s.cache == nil {
		miss, missPos = targets, nil
	}
	// Degraded mode: cache hits were already answered above and ModeFixed
	// misses have strictly local support (the cheap path NAP makes
	// distinguishable), so only un-cached NAP work is shed. ShedAt lets one
	// probe per interval through so flushes keep feeding the latency EWMA —
	// the signal's only recovery path once traffic is being shed.
	if s.cfg.Shed && s.cfg.Opt.Mode != core.ModeFixed && s.co.detector.ShedAt(start) {
		s.obs.FinishTrace(tr, tenant, "shed", len(targets))
		return nil, nil, ErrShed
	}
	deadline, _ := ctx.Deadline()
	p := &pending{targets: miss, tenant: tenant, ctx: ctx, deadline: deadline,
		done: make(chan struct{}), tr: tr, enq: time.Now()}
	if err := s.co.submit(p); err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// Deadline misses are the slow tail: they must land in the
			// latency histograms too, or the percentiles report only the
			// requests that made it.
			d := time.Since(start)
			ten.deadlineMisses.Inc()
			ten.latency.Observe(d.Seconds())
			s.obs.Count("deadline", d)
		case errors.Is(err, context.Canceled):
			s.obs.Count("error", time.Since(start))
		case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQuota):
			// Rejected before enqueueing: the flusher never saw the
			// pending, so the trace can be finished (and recycled) here.
			s.obs.FinishTrace(tr, tenant, "rejected", len(targets))
		default:
			s.obs.FinishTrace(tr, tenant, "error", len(targets))
		}
		// Context-error returns only count the outcome: the flush may
		// still be recording spans into this trace (the caller gave up
		// mid-flight), so it must never re-enter the trace pool — the GC
		// reclaims it instead.
		return nil, nil, err
	}
	mp, md := p.res.Window(p.lo, p.lo+len(miss))
	if missPos == nil {
		// Uncached (or all-miss without positions): the batch window is the
		// whole answer.
		preds, depths = mp, md
	} else {
		for k, i := range missPos {
			preds[i], depths[i] = mp[k], md[k]
		}
	}
	ten.latency.Observe(time.Since(start).Seconds())
	s.obs.FinishTrace(tr, tenant, "ok", len(targets))
	return preds, depths, nil
}

// ApplyDelta applies a graph mutation under the write lock, waiting for
// in-flight coalesced batches to drain and blocking new ones, then refreshes
// the backend incrementally. Whatever the backend committed is followed
// before the lock is released — stale cache entries evicted, the delta
// counted — including when it reports an error beside its result (a router
// whose worker rejected its share of a delta the rest of the fleet applied):
// the caller then gets both.
func (s *Server) ApplyDelta(d graph.Delta) (*graph.DeltaResult, error) {
	s.co.graphMu.Lock()
	defer s.co.graphMu.Unlock()
	dr, err := s.backend.ApplyDelta(d)
	if dr != nil {
		s.invalidate(dr)
		s.m.deltas.Inc()
		s.m.nodesAdded.Add(uint64(dr.NumNew))
		s.m.rowsDirtied.Add(uint64(len(dr.Dirty)))
	}
	return dr, err
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
	s.cache.Invalidate(graph.Ball(s.backend.ServingGraph().Adj, dr.Dirty, s.cfg.Opt.TMax))
}

// Close drains the coalescer: the open window flushes (in-flight Classify
// calls complete with real answers) and its timer stops, and every
// subsequent submit is rejected with ErrShuttingDown (HTTP 503) instead of
// being flushed through a closing server.
func (s *Server) Close() { s.co.close() }
