package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mat"
)

// tracesBody is the JSON shape of GET /debug/traces.
type tracesBody struct {
	Traces []struct {
		ID      uint64 `json:"id"`
		Tenant  string `json:"tenant"`
		Outcome string `json:"outcome"`
		Targets int    `json:"targets"`
		TotalUs int64  `json:"total_us"`
		Spans   []struct {
			Stage string `json:"stage"`
			Hop   int    `json:"hop"`
			// Shard is a pointer: absent for unsharded spans, so a
			// present-but-zero shard id is distinguishable from omitted.
			Shard  *int  `json:"shard"`
			Worker bool  `json:"worker"`
			DurUs  int64 `json:"dur_us"`
		} `json:"spans"`
	} `json:"traces"`
}

func getTraces(t *testing.T, url string) tracesBody {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body tracesBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStitchedDistributedTrace is the acceptance path: one request through
// the sharded HTTP-transport stack leaves one trace in /debug/traces that
// carries both the router's own spans (queue, one fanout, rpc) and the
// engine spans the answering worker recorded under the same id, stitched
// back over the wire with worker=true.
func TestStitchedDistributedTrace(t *testing.T) {
	ds, _ := fixture(t)
	s, _, _ := newDistributedServer(t, 2, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, _, err := s.ClassifyContext(context.Background(), ds.Split.Test[:8], "acme"); err != nil {
		t.Fatal(err)
	}

	body := getTraces(t, ts.URL)
	if len(body.Traces) != 1 {
		t.Fatalf("%d traces after one request, want 1", len(body.Traces))
	}
	tr := body.Traces[0]
	if tr.ID == 0 || tr.Tenant != "acme" || tr.Outcome != "ok" || tr.Targets != 8 {
		t.Fatalf("trace header %+v", tr)
	}

	router := map[string]int{}
	worker := map[string]bool{}
	workerShards := map[int]bool{}
	fanout := -1
	for _, sp := range tr.Spans {
		if sp.Worker {
			worker[sp.Stage] = true
			if sp.Shard == nil {
				t.Fatalf("worker span %q shipped without a shard id", sp.Stage)
			}
			workerShards[*sp.Shard] = true
		} else {
			router[sp.Stage]++
			if sp.Stage == "fanout" {
				if sp.Shard == nil {
					t.Fatal("fanout span without a worker index")
				}
				fanout = *sp.Shard
			}
		}
	}
	for _, stage := range []string{"queue", "rpc"} {
		if router[stage] == 0 {
			t.Fatalf("router span %q missing; got router=%v worker=%v", stage, router, worker)
		}
	}
	if router["fanout"] != 1 || router["merge"] != 0 {
		t.Fatalf("router spans %v, want exactly one fanout and no merge", router)
	}
	for _, stage := range []string{"bfs", "propagate", "classify"} {
		if !worker[stage] {
			t.Fatalf("worker span %q missing; got worker=%v", stage, worker)
		}
	}
	// The one call went to one worker, so only it shipped spans back,
	// tagged at the splice with the index the fanout span names.
	if len(workerShards) != 1 || !workerShards[fanout] {
		t.Fatalf("worker spans from workers %v, want worker %d alone", workerShards, fanout)
	}
}

// TestMetricsSurfaceDistributed: the router's /metrics scrape is valid
// Prometheus text format carrying the request counters, stage histograms,
// graph gauges and per-worker health gauges; each worker's own /metrics
// carries its graph gauges, and the one that answered its engine-stage
// histograms.
func TestMetricsSurfaceDistributed(t *testing.T) {
	ds, _ := fixture(t)
	s, rt, workers := newDistributedServer(t, 2, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, _, err := s.ClassifyContext(context.Background(), ds.Split.Test[:4], "acme"); err != nil {
		t.Fatal(err)
	}

	out := getMetrics(t, ts.URL)
	for _, want := range []string{
		`nai_requests_total{outcome="ok"} 1`,
		"nai_targets_total 4",
		`nai_stage_duration_seconds_bucket{stage="fanout",le="+Inf"}`,
		`nai_stage_duration_seconds_bucket{stage="rpc",le="+Inf"}`,
		"# TYPE nai_request_duration_seconds histogram",
		"nai_graph_nodes",
		"nai_pending_targets 0",
		`nai_shard_up{shard="0"} 1`,
		`nai_shard_up{shard="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("router /metrics missing %q in:\n%s", want, out)
		}
	}

	// Every worker serves its own surface; the one that answered also counts
	// the request and its engine stages.
	answered := 0
	for i, w := range workers {
		wout := getMetrics(t, w.URL)
		for _, want := range []string{
			fmt.Sprintf("nai_shard_id %d", i),
			"nai_graph_nodes",
			`nai_hop1_rows_total{source="memo"}`,
			`nai_hop1_rows_total{source="computed"}`,
			"nai_hop1_memo_entries",
			"nai_hop1_memo_capacity",
			"nai_hop1_memo_bytes",
			"nai_hop1_memo_invalidated_total 0",
		} {
			if !strings.Contains(wout, want) {
				t.Fatalf("worker %d /metrics missing %q in:\n%s", i, want, wout)
			}
		}
		if strings.Contains(wout, `nai_requests_total{outcome="ok"} 1`) {
			answered++
			if want := `nai_stage_duration_seconds_bucket{stage="propagate",le="+Inf"}`; !strings.Contains(wout, want) {
				t.Fatalf("answering worker %d /metrics missing %q in:\n%s", i, want, wout)
			}
		}
	}
	if answered != 1 {
		t.Fatalf("%d workers counted the one request, want 1", answered)
	}

	// The front's own nai_hop1_* series are its workers' counters as of their
	// last health report: after a warm read of other targets' neighbors and
	// one probe, rows have been found resident across the wire. Two
	// consecutive requests rotate over both workers, so one of them lands on
	// the worker the first request warmed.
	for range 2 {
		if _, _, err := s.ClassifyContext(context.Background(), ds.Split.Test[:8], "acme"); err != nil {
			t.Fatal(err)
		}
	}
	rt.Probe(context.Background())
	out = getMetrics(t, ts.URL)
	if strings.Contains(out, `nai_hop1_rows_total{source="memo"} 0`) || !strings.Contains(out, `nai_hop1_rows_total{source="memo"}`) ||
		strings.Contains(out, "nai_hop1_memo_capacity 0") {
		t.Fatalf("router /metrics reports no hop-1 rows served from its HTTP workers' layers:\n%s", out)
	}
}

// TestCachedAndDeadlineOutcomesRecorded pins the fixed accounting paths: a
// fully-cached answer and an already-missed deadline both reach the tenant
// tracker and the obs counters instead of vanishing before instrumentation.
func TestCachedAndDeadlineOutcomesRecorded(t *testing.T) {
	ds, _ := fixture(t)
	s, dep := newTestServer(t, Config{CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the cache, then replay the same targets: the second call is
	// answered without touching the backend.
	if _, _, err := s.ClassifyContext(context.Background(), ds.Split.Test[:3], "warm"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ClassifyContext(context.Background(), ds.Split.Test[:3], "warm"); err != nil {
		t.Fatal(err)
	}

	// A tenant whose only traffic misses its deadline before its call
	// must still show up in per-tenant stats with a real latency sample.
	// Targets the warm-up did not touch, so the cache cannot answer first.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := s.ClassifyContext(expired, ds.Split.Test[4:6], "late"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want DeadlineExceeded", err)
	}

	st := s.Stats()
	warm := st.Tenants["warm"]
	if warm.Requests != 2 || warm.Targets != 6 {
		t.Fatalf("warm tenant %+v, want both the miss and the cached hit counted", warm)
	}
	late, ok := st.Tenants["late"]
	if !ok || late.Requests != 1 || late.DeadlineMisses != 1 {
		t.Fatalf("late tenant %+v, want 1 request / 1 deadline miss", late)
	}
	if late.LatencyP50us <= 0 {
		t.Fatalf("late tenant has no latency sample: %+v", late)
	}

	memo := dep.Hop1Stats()
	if memo.Capacity == 0 || memo.Entries == 0 || memo.Entries > memo.Capacity || memo.Bytes < memo.Capacity*8*dep.Graph.F() {
		t.Fatalf("hop-1 memo stats %+v: want a sized memo holding the rows the warm-up computed", memo)
	}
	out := getMetrics(t, ts.URL)
	for _, want := range []string{
		`nai_requests_total{outcome="ok"} 1`,
		`nai_requests_total{outcome="cached"} 1`,
		`nai_requests_total{outcome="deadline"} 1`,
		"nai_cache_hits 3",
		// One engine call over three targets: their hop-1 rows were computed.
		`nai_hop1_rows_total{source="memo"} 0`,
		`nai_hop1_rows_total{source="computed"}`,
		"nai_hop1_memo_entries",
		// The memo's extent, as the deployment reports it: coverage is
		// entries / capacity, bytes the memory it trades for.
		fmt.Sprintf("nai_hop1_memo_capacity %d\n", memo.Capacity),
		fmt.Sprintf("nai_hop1_memo_bytes %d\n", memo.Bytes),
		"nai_hop1_memo_invalidated_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, out)
		}
	}

	// The cached answer leaves a trace with a "cached" outcome.
	var sawCached bool
	for _, tr := range getTraces(t, ts.URL).Traces {
		if tr.Outcome == "cached" && tr.Tenant == "warm" {
			sawCached = true
		}
	}
	if !sawCached {
		t.Fatal("no cached-outcome trace in /debug/traces")
	}
}

// TestMidCallDeadlineTraced: a deadline that expires while the request's
// backend call runs ends the request as a deadline miss once the call
// returns, and its trace — the engine's spans included — is finished into
// /debug/traces under that outcome.
func TestMidCallDeadlineTraced(t *testing.T) {
	s, gate := gatedServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.ClassifyContext(ctx, []int{0}, "late")
		done <- err
	}()
	<-gate
	<-ctx.Done()
	gate <- struct{}{}
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-call deadline: err %v, want DeadlineExceeded", err)
	}

	traces := getTraces(t, ts.URL).Traces
	if len(traces) != 1 || traces[0].Outcome != "deadline" || traces[0].Tenant != "late" {
		t.Fatalf("traces %+v, want one deadline trace for tenant late", traces)
	}
	stages := map[string]bool{}
	for _, sp := range traces[0].Spans {
		stages[sp.Stage] = true
	}
	for _, stage := range []string{"queue", "bfs", "classify"} {
		if !stages[stage] {
			t.Fatalf("deadline trace lacks its %q span: %v", stage, stages)
		}
	}
	if st := s.Stats(); st.InferCalls != 1 || st.DeadlineExceeded != 0 || st.Tenants["late"].DeadlineMisses != 1 {
		t.Fatalf("stats %+v: want the call counted and the miss charged to the tenant, not dropped", st)
	}
}

// TestScrapesDuringDeltaStorm hammers /metrics and /stats while inference
// traffic races graph deltas. Scrape-time gauge reads share the serving
// read lock, so under -race this pins the contract that observability
// never tears a delta's exclusive section.
func TestScrapesDuringDeltaStorm(t *testing.T) {
	ds, _ := fixture(t)
	s, _ := newTestServer(t, Config{CacheSize: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fixed amounts of work on each side, started together: the test's
	// length is what the work takes, not a sleep's.
	f := ds.Graph.F()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // inference traffic
		defer wg.Done()
		for i := 0; i < 400; i++ {
			_, _, _ = s.ClassifyContext(context.Background(),
				ds.Split.Test[i%4:i%4+2], fmt.Sprintf("t%d", i%3))
		}
	}()
	go func() { // delta storm
		defer wg.Done()
		for i := 0; i < 40; i++ {
			row := make([]float64, f)
			row[i%f] = 1
			_, _ = s.ApplyDelta(graph.Delta{
				Features: mat.FromRows([][]float64{row}), Labels: []int{0},
				Src: []int{ds.Graph.N() + i}, Dst: []int{i % ds.Graph.N()}})
		}
	}()
	go func() { // scrapers
		defer wg.Done()
		for i := 0; i < 40; i++ {
			for _, p := range []string{"/metrics", "/stats", "/debug/traces"} {
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()

	// The surface is still coherent after the storm.
	out := getMetrics(t, ts.URL)
	if !strings.Contains(out, "nai_graph_version") {
		t.Fatalf("post-storm scrape incoherent:\n%s", out)
	}
}

// TestScrapesDuringShardOutage: scraping /metrics and /stats while a dead
// worker's traffic moves to the live one must stay race-free, every request
// must succeed, and the gauges must name the dead worker.
func TestScrapesDuringShardOutage(t *testing.T) {
	ds, _ := fixture(t)
	s, rt, servers := newDistributedServer(t, 2, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	servers[1].Close()
	rt.Probe(context.Background())

	var wg sync.WaitGroup
	var failed atomic.Int64
	wg.Add(2)
	go func() { // traffic beside the dead worker
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, _, err := s.ClassifyContext(context.Background(), ds.Split.Test[i%8:i%8+4], "acme"); err != nil {
				failed.Add(1)
			}
		}
	}()
	go func() { // scrapers
		defer wg.Done()
		for i := 0; i < 40; i++ {
			for _, p := range []string{"/metrics", "/stats"} {
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of 40 requests failed beside one dead worker", n)
	}
	out := getMetrics(t, ts.URL)
	for _, want := range []string{`nai_shard_up{shard="0"} 1`, `nai_shard_up{shard="1"} 0`, `nai_requests_total{outcome="ok"} 40`} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `nai_requests_total{outcome="error"}`) {
		t.Fatalf("requests counted as errors beside a live worker:\n%s", out)
	}
}
