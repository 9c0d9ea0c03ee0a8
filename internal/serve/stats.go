package serve

import (
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
)

// Stats is one /stats snapshot: a JSON view of the server's obs registry
// (every counter below is read from the nai_* series its comment names — the
// same numbers /metrics serves) plus the live gauges. Counters and latency
// percentiles both cover everything since the server started.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Graph shape (after any deltas) and the backend's monotone graph
	// version (1 = as deployed, +1 per effective delta).
	Nodes        int    `json:"nodes"`
	Edges        int    `json:"edges"`
	GraphVersion uint64 `json:"graph_version"`

	// Precision is the tier the backend serves at ("f64", "f32", "int8").
	Precision string `json:"precision"`

	// Request accounting. Requests counts every Classify call that was
	// served — InferCalls (nai_infer_calls_total, both results), one per
	// request that reached the backend, plus
	// nai_requests_total{outcome="cached"}, the ones answered entirely from
	// the result cache; Targets (nai_infer_targets_total) covers only the
	// inference path, so CoalesceRate = Requests/InferCalls is the result
	// cache's amortization factor and AvgBatchTargets the mean number of
	// targets one backend call served.
	Requests        int64   `json:"requests"`
	Targets         int64   `json:"targets"`
	InferCalls      int64   `json:"infer_calls"`
	CoalesceRate    float64 `json:"coalesce_rate"`
	AvgBatchTargets float64 `json:"avg_batch_targets"`

	// Overload-control accounting. InferErrors counts backend calls that
	// failed (nai_infer_calls_total{result="error"}; their calls and
	// targets stay in InferCalls/Targets, so errored work does not vanish
	// from the books); Rejected counts admission-budget and tenant-quota
	// 429s and Shed the degraded-mode 429s (nai_requests_total by outcome),
	// DeadlineExceeded the requests dropped because their deadline or
	// context had expired before their backend call started
	// (nai_infer_dropped_total). PendingTargets is the current in-call
	// occupancy of the admission budget (capacity MaxPending; 0 capacity =
	// unbounded), Degraded the overload detector's current state and
	// DegradedTransitions its flip count (flapping shows up here).
	// FlushEWMAUs is the moving average of backend-call latency: the
	// Retry-After hint of an admission 429 and the input of the latency
	// trip.
	InferErrors         int64 `json:"infer_errors"`
	Rejected            int64 `json:"rejected"`
	Shed                int64 `json:"shed"`
	DeadlineExceeded    int64 `json:"deadline_exceeded"`
	PendingTargets      int   `json:"pending_targets"`
	MaxPending          int   `json:"max_pending"`
	Degraded            bool  `json:"degraded"`
	DegradedTransitions int64 `json:"degraded_transitions"`
	FlushEWMAUs         int64 `json:"flush_ewma_us"`

	// Graph mutation accounting (nai_deltas_total,
	// nai_delta_nodes_added_total, nai_delta_rows_dirtied_total).
	Deltas     int64 `json:"deltas"`
	NodesAdded int64 `json:"nodes_added"`
	EdgesDirty int64 `json:"rows_dirtied"`

	// Per-request latency percentiles in microseconds, estimated from the
	// nai_request_duration_seconds histogram (obs.Histogram.Quantile:
	// every request since start, linear inside a bucket).
	LatencyP50us float64 `json:"latency_p50_us"`
	LatencyP90us float64 `json:"latency_p90_us"`
	LatencyP99us float64 `json:"latency_p99_us"`

	// ScratchBytes is the retained capacity of one pooled inference
	// scratch, the per-in-flight-batch memory footprint.
	ScratchBytes int `json:"scratch_bytes"`

	// Cache reports the result cache's counters; absent (null) when
	// caching is disabled.
	Cache *CacheStats `json:"cache,omitempty"`

	// Shards reports per-worker health when the backend is sharded; absent
	// for single-deployment backends.
	Shards []core.ShardStatus `json:"shards,omitempty"`

	// Tenants breaks request volume and latency SLO accounting down by
	// X-Tenant: the nai_tenant_* series, by their tenant label. At most
	// maxTrackedTenants distinct tenants get a label value; later arrivals
	// aggregate under "~other" (the cap keeps a tenant-id cardinality attack
	// from growing the registry unboundedly). Absent until the first
	// request.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's /stats entry: request volume
// (nai_tenant_requests_total, nai_tenant_targets_total — every call the
// tenant made, refused ones included) and the latency SLO view: percentiles
// of nai_tenant_request_duration_seconds, which holds the tenant's answered
// requests and deadline misses, plus nai_tenant_deadline_misses_total.
type TenantStats struct {
	Requests       int64   `json:"requests"`
	Targets        int64   `json:"targets"`
	DeadlineMisses int64   `json:"deadline_misses"`
	LatencyP50us   float64 `json:"latency_p50_us"`
	LatencyP99us   float64 `json:"latency_p99_us"`
}

// maxTrackedTenants caps the tenant label's values; the tenant namespace is
// client-controlled (a request header), so it must not be unbounded.
const maxTrackedTenants = 64

// tenantOverflowKey aggregates tenants beyond the cap.
const tenantOverflowKey = "~other"

// CacheStats is the /stats "cache" block: the result cache's own counters
// (hits, misses, evictions, invalidations, entries, bytes, hit rate) plus
// the count of requests that never reached the backend
// (nai_requests_total{outcome="cached"}).
type CacheStats struct {
	cache.Stats
	// FullyCachedRequests counts Classify calls whose every target hit the
	// cache (per-target hits on partially cached requests show up in Hits).
	FullyCachedRequests int64 `json:"fully_cached_requests"`
}

// counters are the serving path's instruments on the obs registry: what
// ApplyDelta and ClassifyContext update, and all Stats reads.
// Each event has one instrument; request outcomes and end-to-end latency
// are obs's own (nai_requests_total, nai_request_duration_seconds), of
// which the three outcomes /stats reports are held here.
type counters struct {
	rejected, shed, cached *obs.Counter
	latency                *obs.Histogram

	// One backend call and its targets; dropped counts the requests whose
	// context was done before their call started.
	inferOK, inferErr     *obs.Counter
	inferTargets, dropped *obs.Counter

	deltas, nodesAdded, rowsDirtied *obs.Counter

	tenantRequests, tenantTargets, tenantDeadlineMisses *obs.CounterVec
	tenantLatency                                       *obs.HistogramVec

	// tenants maps a tenant name to its series, so a request pays one
	// read-locked lookup; it is also what caps the label's cardinality.
	mu      sync.RWMutex
	tenants map[string]*tenantSeries
}

// tenantSeries is one tenant label value's children of the nai_tenant_*
// families.
type tenantSeries struct {
	requests, targets, deadlineMisses *obs.Counter
	latency                           *obs.Histogram
}

func newCounters(o *obs.Obs) *counters {
	reg := o.Reg
	calls := reg.CounterVec("nai_infer_calls_total",
		"Backend Infer calls by result (ok, error): one per request not answered entirely from the cache.", "result")
	return &counters{
		rejected: o.Requests("rejected"),
		shed:     o.Requests("shed"),
		cached:   o.Requests("cached"),
		latency:  o.RequestDuration(),
		inferOK:  calls.With("ok"),
		inferErr: calls.With("error"),
		inferTargets: reg.Counter("nai_infer_targets_total",
			"Targets across backend Infer calls."),
		dropped: reg.Counter("nai_infer_dropped_total",
			"Requests dropped before their backend call because their deadline or context had already expired."),
		deltas: reg.Counter("nai_deltas_total",
			"Graph deltas the backend committed."),
		nodesAdded: reg.Counter("nai_delta_nodes_added_total",
			"Nodes appended by deltas."),
		rowsDirtied: reg.Counter("nai_delta_rows_dirtied_total",
			"Adjacency rows deltas changed."),
		tenantRequests: reg.CounterVec("nai_tenant_requests_total",
			"Classify calls by tenant (refused ones included).", "tenant"),
		tenantTargets: reg.CounterVec("nai_tenant_targets_total",
			"Targets of those calls by tenant.", "tenant"),
		tenantDeadlineMisses: reg.CounterVec("nai_tenant_deadline_misses_total",
			"Requests whose deadline expired before an answer, by tenant.", "tenant"),
		tenantLatency: reg.HistogramVec("nai_tenant_request_duration_seconds",
			"Latency of answered requests and deadline misses by tenant.", obs.DefBuckets, "tenant"),
		tenants: make(map[string]*tenantSeries),
	}
}

// tenant returns the series of one tenant, creating them under the cap: the
// first maxTrackedTenants names get a label value of their own, later ones
// share tenantOverflowKey. The empty tenant — unattributed traffic — is
// reported as "default".
func (c *counters) tenant(name string) *tenantSeries {
	if name == "" {
		name = "default"
	}
	c.mu.RLock()
	ts := c.tenants[name]
	c.mu.RUnlock()
	if ts != nil {
		return ts
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts := c.tenants[name]; ts != nil {
		return ts
	}
	if len(c.tenants) >= maxTrackedTenants {
		name = tenantOverflowKey
		if ts := c.tenants[name]; ts != nil {
			return ts
		}
	}
	ts = &tenantSeries{
		requests:       c.tenantRequests.With(name),
		targets:        c.tenantTargets.With(name),
		deadlineMisses: c.tenantDeadlineMisses.With(name),
		latency:        c.tenantLatency.With(name),
	}
	c.tenants[name] = ts
	return ts
}

// micros reads a latency histogram's q-quantile in microseconds.
func micros(h *obs.Histogram, q float64) float64 { return h.Quantile(q) * 1e6 }

// Stats computes the /stats view: the counters as the registry holds them,
// percentiles from its histograms, and the live gauges (admission budget,
// overload detector, backend snapshot).
func (s *Server) Stats() Stats {
	m := s.m
	cached, inferErrs := int64(m.cached.Value()), int64(m.inferErr.Value())
	calls := int64(m.inferOK.Value()) + inferErrs
	st := Stats{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Requests:         calls + cached,
		Targets:          int64(m.inferTargets.Value()),
		InferCalls:       calls,
		InferErrors:      inferErrs,
		Rejected:         int64(m.rejected.Value()),
		Shed:             int64(m.shed.Value()),
		DeadlineExceeded: int64(m.dropped.Value()),
		Deltas:           int64(m.deltas.Value()),
		NodesAdded:       int64(m.nodesAdded.Value()),
		EdgesDirty:       int64(m.rowsDirtied.Value()),
		LatencyP50us:     micros(m.latency, 0.50),
		LatencyP90us:     micros(m.latency, 0.90),
		LatencyP99us:     micros(m.latency, 0.99),
	}
	if st.InferCalls > 0 {
		st.CoalesceRate = float64(st.Requests) / float64(st.InferCalls)
		st.AvgBatchTargets = float64(st.Targets) / float64(st.InferCalls)
	}
	m.mu.RLock()
	if len(m.tenants) > 0 {
		st.Tenants = make(map[string]TenantStats, len(m.tenants))
		for name, ts := range m.tenants {
			st.Tenants[name] = TenantStats{
				Requests:       int64(ts.requests.Value()),
				Targets:        int64(ts.targets.Value()),
				DeadlineMisses: int64(ts.deadlineMisses.Value()),
				LatencyP50us:   micros(ts.latency, 0.50),
				LatencyP99us:   micros(ts.latency, 0.99),
			}
		}
	}
	m.mu.RUnlock()

	st.PendingTargets = s.budget.Pending()
	st.MaxPending = s.budget.Capacity()
	// Peek re-evaluates the depth signal against the current load without
	// committing it: an idle server whose budget drained reports
	// Degraded=false, but a monitoring scrape can never flip the
	// detector's stored state under a racing request (only the request
	// path mutates it).
	st.Degraded = s.detector.Peek(st.PendingTargets, st.MaxPending)
	st.DegradedTransitions = s.detector.Transitions()
	st.FlushEWMAUs = s.detector.FlushEWMA().Microseconds()

	s.graphMu.RLock()
	adj := s.backend.Adjacency()
	st.Nodes, st.Edges = adj.Rows, adj.NNZ()/2
	info := s.backend.Describe()
	s.graphMu.RUnlock()
	st.GraphVersion = info.Version
	st.Precision = info.Precision.String()
	st.ScratchBytes = info.ScratchBytes
	st.Shards = info.Shards
	if s.cache != nil {
		st.Cache = &CacheStats{Stats: s.cache.Stats(), FullyCachedRequests: cached}
	}
	return st
}
