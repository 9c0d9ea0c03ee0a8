package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/sparse"
)

// fastRetry keeps fault-injection tests quick: tight backoff, short HTTP
// call timeouts.
func fastRetry(p int) Config {
	return Config{Shards: p, Retries: 2, RetryBackoff: time.Millisecond}
}

// startWorkers builds p workers, each from a fresh clone of the fixture
// graph, and serves each over a loopback HTTP server, returning the
// transport dialing them. Cleanup closes the servers.
func startWorkers(t *testing.T, p int) (*HTTPTransport, []*httptest.Server) {
	return startWorkersAt(t, p, kernel.PrecisionF64)
}

// startWorkersAt is startWorkers with the workers bootstrapped at an
// explicit precision tier.
func startWorkersAt(t *testing.T, p int, prec kernel.Precision) (*HTTPTransport, []*httptest.Server) {
	t.Helper()
	ds, m := fixture(t)
	addrs := make([]string, p)
	servers := make([]*httptest.Server, p)
	for i := 0; i < p; i++ {
		w, err := NewWorker(m, ds.Graph.Clone(), Config{Shards: p, Precision: prec}, i)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(WorkerHandler(w))
		addrs[i] = servers[i].URL
		t.Cleanup(servers[i].Close)
	}
	return NewHTTPTransport(addrs, HTTPTransportConfig{CallTimeout: 5 * time.Second}), servers
}

// TestTransportEquivalence is the cross-transport bit-identity gate: for
// P ∈ {1,2,4}, a router over HTTP workers must answer every operating point
// bit-identically to the unsharded deployment, before and after every delta
// stage — the same contract the LocalTransport suite pins.
func TestTransportEquivalence(t *testing.T) {
	ds, m := fixture(t)
	for _, p := range []int{1, 2, 4} {
		dep, err := core.NewDeployment(m, ds.Graph.Clone())
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := startWorkers(t, p)
		rt, err := NewRouterTransport(m, ds.Graph.Clone(), fastRetry(p), tr)
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnswers(t, fmt.Sprintf("http/P=%d", p), rt, dep, ds.Split.Test)

		rng := rand.New(rand.NewSource(99))
		for di, d := range testDeltas(ds.Graph, rng) {
			if _, err := dep.ApplyDelta(d.Clone()); err != nil {
				t.Fatalf("P=%d delta %d: unsharded: %v", p, di, err)
			}
			if _, err := rt.ApplyDelta(d.Clone()); err != nil {
				t.Fatalf("P=%d delta %d: http: %v", p, di, err)
			}
			targets := ds.Split.Test
			for v := ds.Graph.N(); v < dep.Graph.N(); v++ {
				targets = append(targets, v)
			}
			requireSameAnswers(t, fmt.Sprintf("http/P=%d after delta %d", p, di), rt, dep, targets)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterTransportHandshake: a router dialing workers bootstrapped from
// a different graph must refuse to start — their answers would not be the
// unsharded engine's.
func TestRouterTransportHandshake(t *testing.T) {
	ds, m := fixture(t)
	tr, _ := startWorkers(t, 2) // workers over the fixture graph
	g := ds.Graph.Clone()
	if _, err := g.ApplyDelta(testDeltas(g, rand.New(rand.NewSource(99)))[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouterTransport(m, g, fastRetry(2), tr); err == nil {
		t.Fatal("workers bootstrapped from a different graph accepted")
	}
}

// The transient-fault and delta-outage suites (formerly driven by an
// in-package flakyTransport test double) live in failover_test.go in the
// external shard_test package, driven by the reusable internal/chaos
// injector — which cannot be imported from this file (import cycle).

// TestDeadShardFailsFast: with one of two HTTP workers killed, every request
// still succeeds on the live one, bit-equal to the unsharded deployment, and
// the probe names the dead worker without degrading the router. With both
// killed, requests fail quickly with ErrUnavailable (503 at the serving
// layer), and once the prober runs they fail fast without re-paying dial
// timeouts.
func TestDeadShardFailsFast(t *testing.T) {
	ds, m := fixture(t)
	tr, servers := startWorkers(t, 2)
	rt, err := NewRouterTransport(m, ds.Graph.Clone(), fastRetry(2), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}

	servers[1].Close() // kill one worker
	requireSameAnswers(t, "worker 1 dead", rt, dep, ds.Split.Test)
	rt.Probe(context.Background())
	if hs := rt.Describe(); !hs.Healthy() || !hs.Shards[0].Up || hs.Shards[1].Up || hs.Shards[1].Err == "" {
		t.Fatalf("worker rows %+v, want a healthy router with worker 1 down and its error named", hs.Shards)
	}

	servers[0].Close() // and the other
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: 1}
	start := time.Now()
	if _, err := rt.Infer(ds.Split.Test, opt); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("every worker dead: got %v, want ErrUnavailable", err)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("a dead pool took %v to fail (hang?)", e)
	}

	// With probing active, a pool with no worker up fails fast instead of
	// re-dialing.
	rt.StartHealthProbe(time.Hour) // activates fail-fast; sweeps run manually below
	rt.Probe(context.Background())
	if rt.Describe().Healthy() {
		t.Fatal("router healthy with every worker dead")
	}
	start = time.Now()
	if _, err := rt.Infer(ds.Split.Test, opt); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("fail-fast: got %v, want ErrUnavailable", err)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("fail-fast took %v", e)
	}
}

// serveWorkerAt bootstraps one worker and serves it on addr over a real
// socket ("" picks a free port; listenAt).
func serveWorkerAt(t *testing.T, m *core.Model, g *graph.Graph, addr string, cfg Config, shardID int) (*http.Server, string) {
	t.Helper()
	w, err := NewWorker(m, g, cfg, shardID)
	if err != nil {
		t.Fatal(err)
	}
	ln := listenAt(t, addr)
	srv := &http.Server{Handler: WorkerHandler(w)}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// listenAt listens on addr, "" picking a free port. A restart on an address
// whose previous listener has only just closed may find the port still held:
// the bind itself is polled until it succeeds, for up to ten seconds, so a
// slow box gets the time it needs and a fast one does not idle.
func listenAt(t *testing.T, addr string) net.Listener {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		runtime.Gosched()
	}
}

// TestWorkerRestartRejoins is the full worker lifecycle over real sockets:
// a worker dies, deltas keep committing, the worker restarts from its
// deterministic bootstrap on the same address, and the router's probe
// replays the missed deltas — answers end bit-identical to an unsharded
// deployment that saw everything, with the router never restarting.
func TestWorkerRestartRejoins(t *testing.T) {
	ds, m := fixture(t)
	const p = 2
	cfg := fastRetry(p)

	serveWorker := func(addr string) (*http.Server, string) {
		return serveWorkerAt(t, m, ds.Graph.Clone(), addr, Config{Shards: p}, 0)
	}

	srv0, addr0 := serveWorker("")
	w1, err := NewWorker(m, ds.Graph.Clone(), Config{Shards: p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(WorkerHandler(w1))
	defer ts1.Close()

	tr := NewHTTPTransport([]string{addr0, ts1.URL}, HTTPTransportConfig{CallTimeout: 5 * time.Second})
	rt, err := NewRouterTransport(m, ds.Graph.Clone(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	deltas := testDeltas(ds.Graph, rng)

	// Delta 0 lands on both workers; then worker 0 dies and deltas 1–2
	// commit with it gone.
	for di, d := range deltas[:3] {
		if di == 1 {
			srv0.Close()
		}
		if _, err := dep.ApplyDelta(d.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.ApplyDelta(d.Clone()); err != nil {
			t.Fatalf("delta %d with worker down: %v", di, err)
		}
	}
	rt.StartHealthProbe(time.Hour)
	rt.Probe(context.Background())
	if rt.Describe().Shards[0].Up {
		t.Fatal("worker 0 reported up while dead")
	}

	// Restart worker 0 on the same address: fresh bootstrap, version 1.
	srv0b, _ := serveWorker(addr0)
	defer srv0b.Close()
	rt.Probe(context.Background()) // finds it behind, replays deltas 0–2
	if !allUp(rt.Describe()) {
		t.Fatalf("restarted worker did not rejoin: %+v", rt.Describe().Shards)
	}

	targets := ds.Split.Test
	for v := ds.Graph.N(); v < dep.Graph.N(); v++ {
		targets = append(targets, v)
	}
	requireSameAnswers(t, "after rejoin", rt, dep, targets)
}

// TestHostileDeltaRejected: a delta graph.ApplyDelta refuses must be
// rejected before anything mutates — a *graph.ValidationError in-process,
// HTTP 400 over POST /shard/delta — leaving the worker's version and graph
// untouched. A mid-apply failure here would corrupt the worker permanently
// (the graph mutated, the version not bumped, the next replay re-appending
// state).
func TestHostileDeltaRejected(t *testing.T) {
	ds, m := fixture(t)
	w, err := NewWorker(m, ds.Graph.Clone(), Config{Shards: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, f := ds.Graph.N(), ds.Graph.F()
	hostile := map[string]graph.Delta{
		"feature dimension":   {Features: mat.New(1, f+1), Labels: []int{0}},
		"label count":         {Features: mat.New(2, f), Labels: []int{0}},
		"label range":         {Features: mat.New(1, f), Labels: []int{ds.Graph.NumClasses}},
		"negative label":      {Features: mat.New(1, f), Labels: []int{-1}},
		"edge endpoint range": {Src: []int{n}, Dst: []int{0}},
		"negative endpoint":   {Src: []int{-1}, Dst: []int{0}},
		"src/dst length":      {Src: []int{0, 1}, Dst: []int{2}},
	}
	want := ds.Graph.Clone()
	unchanged := func(name string) {
		t.Helper()
		g := w.dep.Graph
		if v := w.Health().Version; v != 1 {
			t.Fatalf("%s: worker version %d after a rejected delta, want 1", name, v)
		}
		if !slices.Equal(g.Adj.RowPtr, want.Adj.RowPtr) || !slices.Equal(g.Adj.Col, want.Adj.Col) ||
			!slices.Equal(g.Adj.Val, want.Adj.Val) || !mat.Equal(g.Features, want.Features) ||
			!slices.Equal(g.Labels, want.Labels) {
			t.Fatalf("%s: worker graph changed by a rejected delta", name)
		}
	}
	for name, d := range hostile {
		err := w.ApplyDelta(&ShardDelta{Version: 2, Delta: d})
		var val *graph.ValidationError
		if !errors.As(err, &val) {
			t.Fatalf("%s: got %v, want *graph.ValidationError", name, err)
		}
		unchanged(name)
	}

	// Over the wire the same rejections are 400s.
	srv := httptest.NewServer(WorkerHandler(w))
	defer srv.Close()
	for name, d := range hostile {
		resp, err := http.Post(srv.URL+"/shard/delta", "application/octet-stream",
			bytes.NewReader(encodeShardDelta(&ShardDelta{Version: 2, Delta: d})))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
		unchanged(name + " over the wire")
	}
	if _, err := w.Infer(&InferRequest{Version: 1, Targets: []int{0},
		Opt: core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: 1}}); err != nil {
		t.Fatalf("worker broken after rejected deltas: %v", err)
	}
}

// TestProbeRejectsMismatchedWorker: the probe's re-admission path must run
// the same validation as the startup handshake — a worker restarted on the
// same address with different flags (here: wrong precision tier, a
// different graph) must stay down, not silently rejoin and serve
// non-bit-identical answers; a correctly restarted worker then rejoins as
// usual.
func TestProbeRejectsMismatchedWorker(t *testing.T) {
	ds, m := fixture(t)
	const p = 2

	serveAt := func(addr string, cfg Config, shardID int) (*http.Server, string) {
		t.Helper()
		return serveWorkerAt(t, m, ds.Graph.Clone(), addr, cfg, shardID)
	}

	srv0, addr0 := serveAt("", Config{Shards: p}, 0)
	srv1, addr1 := serveAt("", Config{Shards: p}, 1)
	defer srv1.Close()
	tr := NewHTTPTransport([]string{addr0, addr1}, HTTPTransportConfig{CallTimeout: 5 * time.Second})
	rt, err := NewRouterTransport(m, ds.Graph.Clone(), fastRetry(p), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}

	srv0.Close()
	rt.Probe(context.Background())
	if rt.Describe().Shards[0].Up {
		t.Fatal("worker 0 reported up while dead")
	}

	// An impostor at the wrong precision tier on the right address: the
	// probe must refuse to re-admit it.
	imp, _ := serveAt(addr0, Config{Shards: p, Precision: kernel.PrecisionF32}, 0)
	rt.Probe(context.Background())
	if hs := rt.Describe().Shards; hs[0].Up || hs[0].Err == "" {
		t.Fatalf("mismatched-tier worker re-admitted: %+v", hs[0])
	}
	imp.Close()

	// A worker bootstrapped from a different graph on the right address:
	// same refusal.
	other := ds.Graph.Clone()
	if _, err := other.ApplyDelta(testDeltas(other, rand.New(rand.NewSource(99)))[2]); err != nil {
		t.Fatal(err)
	}
	imp, _ = serveWorkerAt(t, m, other, addr0, Config{}, 0)
	rt.Probe(context.Background())
	if hs := rt.Describe().Shards; hs[0].Up || hs[0].Err == "" {
		t.Fatalf("other-graph worker re-admitted: %+v", hs[0])
	}
	imp.Close()

	// The real worker restarted: rejoins, answers stay bit-identical.
	srv0b, _ := serveAt(addr0, Config{Shards: p}, 0)
	defer srv0b.Close()
	rt.Probe(context.Background())
	if !allUp(rt.Describe()) {
		t.Fatalf("restarted worker did not rejoin: %+v", rt.Describe().Shards)
	}
	requireSameAnswers(t, "after mismatch recovery", rt, dep, ds.Split.Test)
}

// TestProbeDeltaRace hammers Probe from concurrent goroutines while deltas
// apply: the probe snapshots the router's version and replays the delta log
// up to it, so the log must never lag a visible version (the out-of-range
// replay slice would panic the router). Run under -race.
func TestProbeDeltaRace(t *testing.T) {
	ds, m := fixture(t)
	rt, err := NewRouter(m, ds.Graph.Clone(), fastRetry(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rt.Probe(context.Background())
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(99))
	ref := ds.Graph.Clone() // the router's graph as it grows: each round's ids start past it
	for round := 0; round < 20; round++ {
		for _, d := range testDeltas(ref, rng) {
			if _, err := rt.ApplyDelta(d); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if _, err := ref.ApplyDelta(d); err != nil {
				t.Fatalf("round %d reference: %v", round, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	rt.Probe(context.Background())
	if !allUp(rt.Describe()) {
		t.Fatalf("a worker is down after concurrent probes: %+v", rt.Describe().Shards)
	}
}

// TestRouterRetainsNoFeatures: a router keeps the topology of the graph it
// is built from — the adjacency and the class count; a delta's feature width
// is the model's — and none of its features or labels. With the worker built, the live heap is
// read while the caller still holds a graph with 8 MiB of features; once the
// router is built and the caller drops that graph, the heap must fall by at
// least 90 % of those bytes. The router must still check a delta's feature
// width and labels against the dropped graph's.
func TestRouterRetainsNoFeatures(t *testing.T) {
	const n, f, classes = 1000, 1024, 3
	m := &core.Model{K: 2, Gamma: sparse.GammaSymmetric, NumClasses: classes, FeatureDim: f}
	cfg := Config{Shards: 1}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// build holds the caller's graph in its own frame, so the graph is
	// unreachable from the test once build returns.
	build := func() (*Router, uint64) {
		src, dst := make([]int, 0, 2*n), make([]int, 0, 2*n)
		for v := 0; v < n; v++ {
			src, dst = append(src, v, v), append(dst, (v+1)%n, (v+7)%n)
		}
		g, err := graph.New(sparse.FromEdges(n, src, dst, true),
			mat.Randn(n, f, 1, rand.New(rand.NewSource(5))), make([]int, n), classes)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(m, g, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		rt, err := NewRouterTransport(m, g, cfg, NewLocalTransport([]*Worker{w}))
		if err != nil {
			t.Fatal(err)
		}
		return rt, before
	}
	rt, before := build()
	defer rt.Close()
	after := liveHeap()
	features := uint64(n * f * 8)
	if after > before || before-after < features*9/10 {
		t.Fatalf("live heap went %d → %d bytes once the caller dropped its graph; want a fall of at least %d (90%% of the features' %d)",
			before, after, features*9/10, features)
	}

	for name, d := range map[string]graph.Delta{
		"feature dimension": {Features: mat.New(1, f+1), Labels: []int{0}},
		"label range":       {Features: mat.New(1, f), Labels: []int{classes}},
	} {
		var val *graph.ValidationError
		if dr, err := rt.ApplyDelta(d); dr != nil || !errors.As(err, &val) {
			t.Fatalf("%s: result %v, error %v, want a *graph.ValidationError alone", name, dr, err)
		}
	}
	dr, err := rt.ApplyDelta(graph.Delta{Features: mat.New(1, f), Labels: []int{classes - 1},
		Src: []int{n}, Dst: []int{0}})
	if err != nil || dr.FirstNew != n || rt.Adjacency().Rows != n+1 || rt.Version() != 2 {
		t.Fatalf("valid delta: result %+v, error %v, %d nodes at version %d", dr, err, rt.Adjacency().Rows, rt.Version())
	}
}
