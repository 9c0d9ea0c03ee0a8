package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// scrape parses a /metrics body into series → value ("name{labels}" keys,
// exactly as exposed).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(getMetrics(t, url)))
	for sc.Scan() {
		line := sc.Text()
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q", line)
		}
		out[line[:cut]] = v
	}
	return out
}

// TestStatsIsAViewOfMetrics drives every kind of event the daemon counts —
// answered, partially and fully cached, quota-rejected, budget-rejected,
// shed, deadline-expired, failed and delta — through one server, then
// requires each counter field of /stats to equal the /metrics series it is
// documented to be read from: there is one set of books. The tenant label
// carries the same 64 + overflow cap on both endpoints.
func TestStatsIsAViewOfMetrics(t *testing.T) {
	ds, _ := fixture(t)
	fb := &flakyBackend{}
	s := newWrappedServer(t, Config{
		CacheSize: 256, MaxPending: 10,
		DefaultDeadline: 5 * time.Second, Shed: true,
		Quotas: mustQuotas(t, "limited=0.001:1"),
	}, func(b Backend) Backend { fb.Backend = b; return fb })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	test := ds.Split.Test
	classify := func(tenant string, nodes ...int) error {
		_, _, err := s.ClassifyContext(context.Background(), nodes, tenant)
		return err
	}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	must("ok", classify("acme", test[0], test[1]))
	must("partially cached", classify("acme", test[0], test[2]))
	must("fully cached", classify("acme", test[0], test[1], test[2]))

	must("quota warm-up", classify("limited", test[0]))
	if err := classify("limited", test[0]); !errors.Is(err, ErrQuota) {
		t.Fatalf("drained bucket: %v, want ErrQuota", err)
	}

	// Budget reject: a gated call holds 4 of the 10 units (under the 90%
	// depth trip, so nothing is shed), and 7 more do not fit.
	fb.gate = make(chan struct{})
	parked := make(chan error, 1)
	go func() { parked <- classify("acme", test[3], test[4], test[5], test[6]) }()
	<-fb.gate // the call is in the backend, holding its 4 units
	if err := classify("acme", test[7:14]...); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget request: %v, want ErrOverloaded", err)
	}
	fb.gate <- struct{}{}
	must("parked request", <-parked)
	fb.gate = nil

	// Shed: trip the latency loop, lose one uncached NAP request, recover.
	s.detector.ObserveFlush(time.Minute)
	if err := classify("acme", test[20]); !errors.Is(err, ErrShed) {
		t.Fatalf("degraded miss: %v, want ErrShed", err)
	}
	for i := 0; i < 64 && s.detector.Degraded(); i++ {
		s.detector.ObserveFlush(time.Millisecond)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := s.ClassifyContext(expired, test[21:22], "late"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want DeadlineExceeded", err)
	}

	fb.inferErr = fmt.Errorf("kernel fault")
	if err := classify("acme", test[22]); err == nil {
		t.Fatal("forced Infer error did not surface")
	}
	fb.inferErr = nil

	if _, err := s.ApplyDelta(graph.Delta{Src: []int{test[0]}, Dst: []int{test[30]}}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2*maxTrackedTenants; i++ {
		must("tenant flood", classify(fmt.Sprintf("t%03d", i), test[40]))
	}

	resp, err := ts.Client().Get(ts.URL + "/stats")
	must("GET /stats", err)
	st := decodeBody[Stats](t, resp)
	m := scrape(t, ts.URL)
	outcome := func(o string) float64 { return m[`nai_requests_total{outcome="`+o+`"}`] }
	calls := func(r string) float64 { return m[`nai_infer_calls_total{result="`+r+`"}`] }
	macs := func(p string) float64 { return m[`nai_infer_macs_total{procedure="`+p+`"}`] }
	for _, c := range []struct {
		field string
		got   int64
		want  float64
		min   float64 // the events above must have moved it at least this far
	}{
		{"requests", st.Requests, calls("ok") + calls("error") + outcome("cached"), 8},
		{"targets", st.Targets, m["nai_infer_targets_total"], 9},
		{"infer_calls", st.InferCalls, calls("ok") + calls("error"), 5},
		{"infer_errors", st.InferErrors, calls("error"), 1},
		{"rejected", st.Rejected, outcome("rejected"), 2},
		{"shed", st.Shed, outcome("shed"), 1},
		{"deadline_exceeded", st.DeadlineExceeded, m["nai_infer_dropped_total"], 1},
		{"deltas", st.Deltas, m["nai_deltas_total"], 1},
		{"nodes_added", st.NodesAdded, m["nai_delta_nodes_added_total"], 0},
		{"rows_dirtied", st.EdgesDirty, m["nai_delta_rows_dirtied_total"], 2},
		{"macs.Stationary", int64(st.MACs.Stationary), macs("stationary"), 1},
		{"macs.Propagation", int64(st.MACs.Propagation), macs("propagation"), 1},
		{"macs.Decision", int64(st.MACs.Decision), macs("decision"), 1},
		{"macs.Combine", int64(st.MACs.Combine), macs("combine"), 0},
		{"macs.Classification", int64(st.MACs.Classification), macs("classification"), 1},
		{"cache.fully_cached_requests", st.Cache.FullyCachedRequests, outcome("cached"), 1},
		{"cache.hits", st.Cache.Hits, m["nai_cache_hits"], 4},
		{"cache.misses", st.Cache.Misses, m["nai_cache_misses"], 10},
		{"cache.entries", int64(st.Cache.Entries), m["nai_cache_entries"], 0},
		{"graph_version", int64(st.GraphVersion), m["nai_graph_version"], 2},
	} {
		if float64(c.got) != c.want || c.want < c.min {
			t.Errorf("/stats %s = %d, /metrics says %v (want equal and ≥ %v)", c.field, c.got, c.want, c.min)
		}
	}
	if st.LatencyP50us <= 0 || st.LatencyP99us < st.LatencyP50us {
		t.Errorf("latency percentiles %v / %v / %v", st.LatencyP50us, st.LatencyP90us, st.LatencyP99us)
	}

	labels := 0
	for series := range m {
		if strings.HasPrefix(series, "nai_tenant_requests_total{") {
			labels++
		}
	}
	if labels > maxTrackedTenants+1 || len(st.Tenants) != labels {
		t.Fatalf("%d tenant label values on /metrics, %d tenants in /stats, cap is %d + overflow",
			labels, len(st.Tenants), maxTrackedTenants)
	}
	for name, ten := range st.Tenants {
		l := `{tenant="` + name + `"}`
		if float64(ten.Requests) != m["nai_tenant_requests_total"+l] ||
			float64(ten.Targets) != m["nai_tenant_targets_total"+l] ||
			float64(ten.DeadlineMisses) != m["nai_tenant_deadline_misses_total"+l] {
			t.Errorf("tenant %q: /stats %+v disagrees with its /metrics series", name, ten)
		}
	}
	if of := st.Tenants[tenantOverflowKey]; of.Requests == 0 {
		t.Error("overflow tenants not aggregated under " + tenantOverflowKey)
	}
	if late := st.Tenants["late"]; late.DeadlineMisses != 1 || late.LatencyP50us <= 0 {
		t.Errorf("late tenant %+v, want its deadline miss counted and timed", late)
	}
}

// flappingFleet is a backend whose fleet changes its mind on every
// Describe: worker 0 is always down, and every other worker is down on odd
// calls and up on even ones — so the fleet can serve exactly when worker 1
// is up.
type flappingFleet struct {
	Backend
	shards int
	calls  atomic.Int64
}

func (f *flappingFleet) Describe() core.Info {
	n := f.calls.Add(1)
	info := f.Backend.Describe()
	for p := 0; p < f.shards; p++ {
		info.Shards = append(info.Shards, core.ShardStatus{Shard: p, Up: p != 0 && n%2 == 0})
	}
	return info
}

// TestFleetReadsAreSnapshots: /healthz derives its verdict, its status code
// and its worker rows from one backend snapshot, so they agree whatever
// the fleet does between calls; and a scrape takes one snapshot per series
// family, not one per worker.
func TestFleetReadsAreSnapshots(t *testing.T) {
	perScrape := map[int]int64{}
	for _, shards := range []int{2, 16} {
		fleet := &flappingFleet{shards: shards}
		s := newWrappedServer(t, Config{},
			func(b Backend) Backend { fleet.Backend = b; return fleet })
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		for i := 0; i < 8; i++ {
			resp, err := ts.Client().Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			code := resp.StatusCode
			h := decodeBody[HealthResponse](t, resp)
			if serving := h.Shards[1].Up; h.OK != serving || (code == http.StatusOK) != serving {
				t.Fatalf("/healthz contradicts itself: status %d, ok %v, worker 1 up %v", code, h.OK, serving)
			}
		}

		before := fleet.calls.Load()
		m := scrape(t, ts.URL)
		perScrape[shards] = fleet.calls.Load() - before
		if _, ok := m[fmt.Sprintf(`nai_shard_up{shard="%d"}`, shards-1)]; !ok {
			t.Fatalf("scrape of a %d-worker fleet lacks its last worker's series", shards)
		}
	}
	if perScrape[2] != perScrape[16] {
		t.Fatalf("a scrape took %d snapshots of 2 workers but %d of 16: want one per family", perScrape[2], perScrape[16])
	}
}
