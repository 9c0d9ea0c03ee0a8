package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/shard"
)

// newDistributedServer builds the full two-tier stack the daemon runs in
// distributed mode: shard workers behind loopback HTTP servers, a router
// dialing them, and a serve.Server fronting the router. The router handle
// is returned so tests can drive probes directly.
func newDistributedServer(t *testing.T, p int, cfg Config) (*Server, *shard.Router, []*httptest.Server) {
	return newDistributedServerAt(t, p, cfg, kernel.PrecisionF64)
}

// newDistributedServerAt is newDistributedServer with the whole fleet —
// workers and router — bootstrapped at an explicit precision tier. Workers
// run with their own observability surface, like `naiserve -shard-worker`
// does, so every distributed test also exercises worker-side tracing.
func newDistributedServerAt(t *testing.T, p int, cfg Config, prec kernel.Precision) (*Server, *shard.Router, []*httptest.Server) {
	t.Helper()
	ds, m := fixture(t)
	if cfg.Opt.TMax == 0 {
		cfg.Opt = core.InferenceOptions{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K}
	}
	addrs := make([]string, p)
	servers := make([]*httptest.Server, p)
	for i := 0; i < p; i++ {
		w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{Shards: p, Precision: prec}, i)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(shard.WorkerHandlerObs(w, obs.New(obs.Options{RingSize: 16})))
		addrs[i] = servers[i].URL
		t.Cleanup(servers[i].Close)
	}
	tr := shard.NewHTTPTransport(addrs, shard.HTTPTransportConfig{CallTimeout: 5 * time.Second})
	rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(),
		shard.Config{Shards: p, Retries: 1, RetryBackoff: time.Millisecond, Precision: prec}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	s := NewBackend(rt, cfg)
	t.Cleanup(s.Close)
	return s, rt, servers
}

// TestDistributedServing: the daemon over HTTP workers answers exactly like
// one over a single deployment, and /healthz and /stats carry one row per
// worker with every worker up.
func TestDistributedServing(t *testing.T) {
	ds, m := fixture(t)
	s, _, _ := newDistributedServer(t, 2, Config{})
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want, err := dep.Infer(ds.Split.Test, core.InferenceOptions{
		Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	preds, depths, err := s.Classify(ds.Split.Test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pred {
		if preds[i] != want.Pred[i] || depths[i] != want.Depths[i] {
			t.Fatalf("target %d: distributed (%d,%d) != direct (%d,%d)",
				ds.Split.Test[i], preds[i], depths[i], want.Pred[i], want.Depths[i])
		}
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !hr.OK || len(hr.Shards) != 2 {
		t.Fatalf("healthz %d %+v, want 200 with 2 workers up", resp.StatusCode, hr)
	}
	for _, sh := range hr.Shards {
		if !sh.Up {
			t.Fatalf("worker %d reported down: %+v", sh.Shard, sh)
		}
	}
	if st := s.Stats(); len(st.Shards) != 2 {
		t.Fatalf("stats rows %+v, want 2 entries", st.Shards)
	}
}

// TestHealthzDegradesWithDeadWorker: with one of two workers killed,
// /healthz stays 200 with the dead worker's row named and every request is
// answered by the live one, bit-equal to the unsharded deployment. With
// both killed, /healthz turns 503 and requests get 503 (ErrUnavailable)
// instead of hanging.
func TestHealthzDegradesWithDeadWorker(t *testing.T) {
	ds, m := fixture(t)
	s, rt, servers := newDistributedServer(t, 2, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	healthz := func() (int, HealthResponse) {
		t.Helper()
		rt.Probe(context.Background())
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr
	}

	servers[1].Close()
	if code, hr := healthz(); code != http.StatusOK || !hr.OK || !hr.Shards[0].Up || hr.Shards[1].Up || hr.Shards[1].Err == "" {
		t.Fatalf("healthz with one dead worker: %d %+v, want 200 ok with worker 1 down and named", code, hr)
	}
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want, err := dep.Infer(ds.Split.Test, core.InferenceOptions{
		Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // consecutive requests would rotate over both workers
		preds, depths, err := s.Classify(ds.Split.Test)
		if err != nil {
			t.Fatalf("classify beside a dead worker: %v", err)
		}
		for i := range want.Pred {
			if preds[i] != want.Pred[i] || depths[i] != want.Depths[i] {
				t.Fatalf("target %d: (%d,%d) beside a dead worker != direct (%d,%d)",
					ds.Split.Test[i], preds[i], depths[i], want.Pred[i], want.Depths[i])
			}
		}
	}

	servers[0].Close()
	if code, hr := healthz(); code != http.StatusServiceUnavailable || hr.OK || hr.Shards[0].Up || hr.Shards[1].Up {
		t.Fatalf("healthz with every worker dead: %d %+v, want 503 with both down", code, hr)
	}
	_, _, err = s.Classify(ds.Split.Test)
	if !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("classify with every worker dead: %v, want ErrUnavailable", err)
	}
	if got := httpStatus(err); got != http.StatusServiceUnavailable {
		t.Fatalf("ErrUnavailable maps to %d, want 503", got)
	}
}

// TestTenantSLOStats: /stats breaks requests, latency percentiles and
// deadline misses down by tenant, and the tenant map is capped against
// header-cardinality abuse.
func TestTenantSLOStats(t *testing.T) {
	ds, _ := fixture(t)
	s, _ := newTestServer(t, Config{})

	for i := 0; i < 6; i++ {
		if _, _, err := s.ClassifyContext(context.Background(), ds.Split.Test[:2], "acme"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.ClassifyContext(context.Background(), ds.Split.Test[:1], ""); err != nil {
		t.Fatal(err)
	}
	// An already-expired deadline: the caller misses before its backend call.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := s.ClassifyContext(expired, ds.Split.Test[:1], "acme"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want DeadlineExceeded", err)
	}

	st := s.Stats()
	acme, ok := st.Tenants["acme"]
	if !ok {
		t.Fatalf("no acme tenant block in %+v", st.Tenants)
	}
	if acme.Requests != 7 || acme.Targets != 13 {
		t.Fatalf("acme volume %+v, want 7 requests / 13 targets", acme)
	}
	if acme.DeadlineMisses != 1 {
		t.Fatalf("acme deadline misses %d, want 1", acme.DeadlineMisses)
	}
	if acme.LatencyP50us <= 0 || acme.LatencyP99us < acme.LatencyP50us {
		t.Fatalf("acme latency percentiles %+v", acme)
	}
	if def, ok := st.Tenants["default"]; !ok || def.Requests != 1 {
		t.Fatalf("unattributed traffic block %+v, want 1 request under 'default'", def)
	}

	// Cardinality cap: hostile distinct tenant ids aggregate under ~other.
	for i := 0; i < 2*maxTrackedTenants; i++ {
		_, _, _ = s.ClassifyContext(context.Background(), ds.Split.Test[:1], fmt.Sprintf("t%03d", i))
	}
	st = s.Stats()
	if len(st.Tenants) > maxTrackedTenants+1 {
		t.Fatalf("%d tenant entries, cap is %d + overflow", len(st.Tenants), maxTrackedTenants)
	}
	if of, ok := st.Tenants[tenantOverflowKey]; !ok || of.Requests == 0 {
		t.Fatalf("overflow tenants not aggregated: %+v", st.Tenants[tenantOverflowKey])
	}
}
