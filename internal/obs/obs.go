// Package obs is the serving stack's observability layer: a
// zero-dependency metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms with a Prometheus text-format encoder,
// served at GET /metrics), lightweight per-request tracing (a Trace
// carried via context.Context through admission → engine → shard router →
// transport, with worker-side spans stitched across the
// wire by trace id), and a bounded ring of recent completed traces plus
// a slow-request log served at GET /debug/traces.
//
// The instrumentation contract is "always on and cheap": spans live in a
// fixed-size array inside pooled Trace objects (no per-request allocation
// on the hot path — appending a span is one atomic add and a struct
// write), every Trace/Obs method is safe on a nil receiver so an
// uninstrumented path (a shard.WorkerHandler without an Obs) costs one
// predictable branch, and BenchmarkRequestHotPath prices the per-request
// cost directly.
//
// The Registry is the one place the serving stack counts anything: the
// daemon's /stats JSON is a view computed from these instruments at read
// time (counters as they are, latency percentiles via Histogram.Quantile),
// so /stats and /metrics cannot disagree.
//
// Metric naming follows Prometheus conventions under a single nai_
// prefix: nai_requests_total{outcome=...}, nai_request_duration_seconds,
// nai_stage_duration_seconds{stage=...},
// nai_propagate_hop_duration_seconds{hop=...}, and the counters and gauges
// the serve and shard layers register on Reg (backend Infer calls,
// deltas, per-tenant volume and latency, cache, admission, shard health).
package obs

import (
	"log/slog"
	"time"
)

// Options configures an Obs bundle.
type Options struct {
	// RingSize bounds the ring of recent completed traces kept for
	// GET /debug/traces (default 64).
	RingSize int
	// SlowThreshold is the total-duration threshold above which a
	// completed trace is also written to the slow-request log via Logger
	// (0 disables the slow log).
	SlowThreshold time.Duration
	// Logger receives slow-request records; nil falls back to
	// slog.Default().
	Logger *slog.Logger
}

// Obs bundles the pieces one process needs: a metrics Registry (served
// at /metrics), the trace Ring (served at /debug/traces), and the
// pre-registered request/stage instruments that FinishTrace folds every
// completed trace into. Both the serving router and shard worker
// processes own one. A nil *Obs is valid and turns every method into a
// no-op.
type Obs struct {
	// Reg is the process metrics registry; wiring code registers its own
	// gauges (cache occupancy, shard health, admission depth) on it.
	Reg *Registry
	// Ring holds recent completed traces for GET /debug/traces.
	Ring *Ring

	requests *CounterVec
	targets  *Counter
	reqDur   *Histogram
	stages   [numStages]*Histogram
	hops     *HistogramVec
}

// New builds an Obs bundle with the standard request and stage
// instruments registered.
func New(opt Options) *Obs {
	o := &Obs{
		Reg:  NewRegistry(),
		Ring: NewRing(opt.RingSize, opt.SlowThreshold, opt.Logger),
	}
	o.requests = o.Reg.CounterVec("nai_requests_total",
		"Completed requests by outcome (ok, cached, rejected, shed, deadline, error).",
		"outcome")
	o.targets = o.Reg.Counter("nai_targets_total",
		"Target nodes across completed requests.")
	o.reqDur = o.Reg.Histogram("nai_request_duration_seconds",
		"End-to-end request latency.", DefBuckets)
	stageVec := o.Reg.HistogramVec("nai_stage_duration_seconds",
		"Per-stage latency across the request path (span taxonomy: queue, bfs, propagate, decide, classify, fanout, encode, rpc, decode).",
		DefBuckets, "stage")
	for s := Stage(0); s < numStages; s++ {
		o.stages[s] = stageVec.With(s.String())
	}
	o.hops = o.Reg.HistogramVec("nai_propagate_hop_duration_seconds",
		"Per-hop propagation (SpMM) latency at the active precision tier.",
		DefBuckets, "hop")
	return o
}

// StartTrace begins a new trace with a process-unique id. Nil-safe: a
// nil Obs returns a nil Trace, on which every method is a no-op.
func (o *Obs) StartTrace() *Trace {
	if o == nil {
		return nil
	}
	return o.Ring.start(0, time.Time{})
}

// StartTraceAt is StartTrace with an explicit start instant — request
// paths that already read the clock for latency accounting pass it in
// so instrumentation does not read it again.
func (o *Obs) StartTraceAt(at time.Time) *Trace {
	if o == nil {
		return nil
	}
	return o.Ring.start(0, at)
}

// StartTraceID begins a trace under a caller-supplied id — the worker
// side of an RPC uses the router's id so the two halves stitch.
func (o *Obs) StartTraceID(id uint64) *Trace {
	if o == nil {
		return nil
	}
	return o.Ring.start(id, time.Time{})
}

// FinishTrace completes a trace: stamps its summary, folds its spans
// into the stage histograms and request counters, inserts it into the
// ring, and emits a slow-request log record if it crossed the
// threshold. Nil-safe on both receiver and trace.
func (o *Obs) FinishTrace(t *Trace, tenant, outcome string, targets int) {
	if o == nil || t == nil {
		return
	}
	t.tenant = tenant
	t.outcome = outcome
	t.targets = targets
	t.total = time.Since(t.start)

	o.requests.With(outcome).Inc()
	o.targets.Add(uint64(targets))
	o.reqDur.Observe(t.total.Seconds())
	for _, sp := range t.Spans() {
		o.stages[sp.Stage].Observe(sp.Dur.Seconds())
		if sp.Stage == StagePropagate && sp.Hop > 0 {
			o.hops.With(itoa(int(sp.Hop))).Observe(sp.Dur.Seconds())
		}
	}
	o.Ring.finish(t)
}

// Requests returns the nai_requests_total counter of one outcome, for views
// that report it (the daemon's /stats).
func (o *Obs) Requests(outcome string) *Counter { return o.requests.With(outcome) }

// RequestDuration returns the nai_request_duration_seconds histogram.
func (o *Obs) RequestDuration() *Histogram { return o.reqDur }

// itoa formats small non-negative integers without fmt (hop numbers are
// tiny; the general path is still correct for large values).
func itoa(v int) string {
	if v < 10 {
		return string([]byte{'0' + byte(v)})
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = '0' + byte(v%10)
		v /= 10
	}
	return string(buf[i:])
}
