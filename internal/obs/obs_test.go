package obs

import (
	"bytes"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries: le is an inclusive upper bound — a value
// exactly on a boundary counts in that boundary's bucket, matching
// Prometheus semantics — and cumulative bucket counts are monotone with
// the +Inf bucket equal to the total count.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.25, 1})

	h.Observe(0.25) // exactly on the first boundary → le="0.25"
	h.Observe(0.5)  // between boundaries → le="1"
	h.Observe(1.0)  // exactly on the second boundary → le="1"
	h.Observe(2.0)  // beyond the last boundary → +Inf only

	if h.Count() != 4 {
		t.Fatalf("count %d, want 4", h.Count())
	}
	if h.Sum() != 3.75 {
		t.Fatalf("sum %v, want 3.75", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.25"} 1`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		`test_latency_seconds_sum 3.75`,
		`test_latency_seconds_count 4`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, buf.String())
		}
	}

	// The default bounds resolve what the stack mostly serves: a ≈ 50µs
	// cache hit and a ≈ 70µs point read fall in different buckets, both
	// below the old 100µs floor.
	if DefBuckets[0] != 0.00001 || DefBuckets[1] != 0.000025 || DefBuckets[2] != 0.00005 || DefBuckets[3] != 0.0001 {
		t.Fatalf("DefBuckets start %v, want 10µs, 25µs, 50µs, 100µs", DefBuckets[:4])
	}
	d := r.Histogram("test_default_seconds", "Default bounds.", nil)
	d.Observe(0.000048)
	d.Observe(0.000066)
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`test_default_seconds_bucket{le="2.5e-05"} 0`,
		`test_default_seconds_bucket{le="5e-05"} 1`,
		`test_default_seconds_bucket{le="0.0001"} 2`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, buf.String())
		}
	}
}

// TestHistogramQuantile: the estimate /stats percentiles are read from —
// linear inside the bucket the rank falls in, from 0 in the first bucket,
// clamped to the last finite bound in +Inf, and 0 with nothing observed.
func TestHistogramQuantile(t *testing.T) {
	for _, c := range []struct {
		name    string
		observe []float64
		q, want float64
	}{
		{"empty", nil, 0.5, 0},
		{"all in the first bucket", []float64{0.1, 0.1, 0.1, 0.1}, 0.5, 0.5},
		{"all in one inner bucket", []float64{1.5, 1.5, 1.5, 1.5}, 0.5, 1.5},
		{"all in one inner bucket, p100", []float64{1.5, 1.5}, 1, 2},
		{"rank on a bucket edge", []float64{0.5, 1.5, 1.5, 3}, 0.25, 1},
		{"across buckets", []float64{0.5, 1.5, 1.5, 3}, 0.5, 1.5},
		{"+Inf clamps to the last finite bound", []float64{0.5, 9, 9, 9}, 0.99, 4},
		{"only +Inf", []float64{100}, 0.5, 4},
	} {
		h := newHistogram([]float64{1, 2, 4})
		for _, v := range c.observe {
			h.Observe(v)
		}
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
}

// TestGaugeVecCollectFunc: a collected family calls its function once per
// scrape and renders every sample it emits.
func TestGaugeVecCollectFunc(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.GaugeVec("test_up", "Up.", "shard", "replica").CollectFunc(func(emit func(float64, ...string)) {
		calls++
		emit(1, "0", "0")
		emit(0, "0", "1")
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP test_up Up.\n# TYPE test_up gauge\n" +
		"test_up{shard=\"0\",replica=\"0\"} 1\ntest_up{shard=\"0\",replica=\"1\"} 0\n"
	if buf.String() != want || calls != 1 {
		t.Fatalf("%d calls, output:\n%s\nwant one call and:\n%s", calls, buf.String(), want)
	}
}

// TestWritePrometheusGolden: the encoder's exact output — HELP/TYPE
// comments, registration-ordered families, first-use-ordered children,
// label rendering, cumulative histogram buckets.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("test_requests_total", "Total requests.", "outcome")
	reqs.With("ok").Add(3)
	reqs.With("error").Inc()
	r.GaugeFunc("test_depth", "Queue depth.", func() float64 { return 1.5 })
	hv := r.HistogramVec("test_stage_seconds", "Stage latency.", []float64{0.25, 1}, "stage")
	h := hv.With("bfs")
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total{outcome="ok"} 3
test_requests_total{outcome="error"} 1
# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 1.5
# HELP test_stage_seconds Stage latency.
# TYPE test_stage_seconds histogram
test_stage_seconds_bucket{stage="bfs",le="0.25"} 0
test_stage_seconds_bucket{stage="bfs",le="1"} 1
test_stage_seconds_bucket{stage="bfs",le="+Inf"} 2
test_stage_seconds_sum{stage="bfs"} 2.5
test_stage_seconds_count{stage="bfs"} 2
`
	if buf.String() != want {
		t.Fatalf("encoding mismatch:\n got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestMetricsHandler: GET-only, the versioned text content type, and
// label-value escaping surviving a scrape.
func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_total", "Counts.", "who").With(`a"b\c`).Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `test_total{who="a\"b\\c"} 1`) {
		t.Fatalf("escaping broken:\n%s", buf.String())
	}

	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %d, want 405", post.StatusCode)
	}
}

// TestRingEviction: the ring keeps exactly the last size traces, newest
// first, and evicted traces return to the free list for reuse (no
// steady-state allocation).
func TestRingEviction(t *testing.T) {
	r := NewRing(4, 0, nil)
	for i := 0; i < 10; i++ {
		tr := r.start(0, time.Time{})
		tr.outcome = "ok"
		r.finish(tr)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("%d traces retained, want 4", len(snap))
	}
	for i, ti := range snap {
		if want := uint64(10 - i); ti.ID != want {
			t.Fatalf("snapshot[%d].ID = %d, want %d (newest first)", i, ti.ID, want)
		}
	}
	// 10 starts against a 4-slot ring allocate at most size+1 traces: the
	// free list recycles every eviction.
	r.mu.Lock()
	free := len(r.free)
	r.mu.Unlock()
	if free == 0 {
		t.Fatal("free list empty after evictions — traces are not recycled")
	}
}

// TestTraceSpanCapAndConcurrency: concurrent span appends from many
// goroutines (the router fan-out shape) never exceed MaxSpans and never
// race (run under -race).
func TestTraceSpanCapAndConcurrency(t *testing.T) {
	tr := new(Trace)
	tr.reset(1, time.Time{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < MaxSpans; i++ {
				tr.Add(Span{Stage: StageFanout, Shard: 1, Dur: time.Microsecond})
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Spans()); n != MaxSpans {
		t.Fatalf("%d spans retained, want the MaxSpans=%d cap", n, MaxSpans)
	}
}

// TestNilSafety: every Obs/Trace method must be a no-op on a nil
// receiver — that is the whole uninstrumented-path contract.
func TestNilSafety(t *testing.T) {
	var o *Obs
	tr := o.StartTrace()
	if tr != nil {
		t.Fatal("nil Obs produced a trace")
	}
	at := tr.Begin()
	if !at.IsZero() {
		t.Fatal("nil trace Begin read the clock")
	}
	tr.End(StageBFS, 0, -1, at)
	tr.Add(Span{Stage: StageQueue})
	if tr.ID() != 0 || tr.Spans() != nil {
		t.Fatal("nil trace not inert")
	}
	o.FinishTrace(tr, "t", "ok", 1)
}

// TestStitchedTraceIDs: a worker-side trace started under the router's id
// reports that id, and fresh ids are process-unique.
func TestStitchedTraceIDs(t *testing.T) {
	o := New(Options{RingSize: 8})
	a, b := o.StartTrace(), o.StartTrace()
	if a.ID() == 0 || a.ID() == b.ID() {
		t.Fatalf("fresh ids %d, %d: want distinct non-zero", a.ID(), b.ID())
	}
	w := o.StartTraceID(a.ID())
	if w.ID() != a.ID() {
		t.Fatalf("worker trace id %d, want router id %d", w.ID(), a.ID())
	}
	o.FinishTrace(a, "", "ok", 1)
	o.FinishTrace(b, "", "ok", 1)
	o.FinishTrace(w, "", "ok", 1)
}

// TestSlowRequestLog: a trace crossing the threshold emits one structured
// slow-request record; faster traces stay silent.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	o := New(Options{RingSize: 8, SlowThreshold: time.Nanosecond, Logger: logger})
	tr := o.StartTraceAt(time.Now().Add(-time.Second))
	o.FinishTrace(tr, "acme", "ok", 3)
	out := buf.String()
	if !strings.Contains(out, "slow request") || !strings.Contains(out, `"tenant":"acme"`) {
		t.Fatalf("slow log record missing or unstructured: %q", out)
	}

	buf.Reset()
	fast := New(Options{RingSize: 8, SlowThreshold: time.Hour, Logger: logger})
	ft := fast.StartTrace()
	fast.FinishTrace(ft, "acme", "ok", 1)
	if buf.Len() != 0 {
		t.Fatalf("fast trace logged: %q", buf.String())
	}
}

// TestFinishTraceFoldsHistograms: spans fold into the stage histograms
// and propagate spans additionally into the per-hop vec.
func TestFinishTraceFoldsHistograms(t *testing.T) {
	o := New(Options{RingSize: 8})
	tr := o.StartTrace()
	tr.Add(Span{Stage: StageBFS, Dur: time.Millisecond})
	tr.Add(Span{Stage: StagePropagate, Hop: 2, Dur: 2 * time.Millisecond})
	o.FinishTrace(tr, "", "ok", 5)

	if got := o.stages[StageBFS].Count(); got != 1 {
		t.Fatalf("bfs histogram count %d, want 1", got)
	}
	if got := o.hops.With("2").Count(); got != 1 {
		t.Fatalf("hop 2 histogram count %d, want 1", got)
	}
	if got := o.requests.With("ok").Value(); got != 1 {
		t.Fatalf("ok counter %d, want 1", got)
	}
	if got := o.targets.Value(); got != 5 {
		t.Fatalf("targets counter %d, want 5", got)
	}
}
