// The failover and fault-injection suites live in this external test
// package (not package shard) because they drive faults through
// internal/chaos, which imports internal/shard — an in-package test file
// importing it would be an import cycle. In-package helpers arrive through
// export_test.go.
package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/shard"
)

// poolHarness is a router over in-process workers behind a chaos injector,
// plus the unsharded reference deployment. Worker i sits at transport index
// i, so chaos.Partition(i) cuts off exactly that worker.
type poolHarness struct {
	rt  *shard.Router
	inj *chaos.Injector
	dep *core.Deployment
}

// newPool builds n workers, wrapping the local transport in wrap (nil =
// none) beneath the injector and partitioning the cut indices before the
// router's start-up handshake runs. The router's construction error is
// returned.
func newPool(t *testing.T, n int, wrap func(shard.Transport) shard.Transport, cut ...int) (*poolHarness, error) {
	t.Helper()
	ds, m := shard.TestFixture(t)
	workers := make([]*shard.Worker, n)
	for i := range workers {
		w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{}, i)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	var tr shard.Transport = shard.NewLocalTransport(workers)
	if wrap != nil {
		tr = wrap(tr)
	}
	h := &poolHarness{inj: chaos.New(tr, 1)}
	h.inj.Partition(cut...)
	var err error
	h.rt, err = shard.NewRouterTransport(m, ds.Graph.Clone(), shard.TestFastRetry(n), h.inj)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { h.rt.Close() })
	if h.dep, err = core.NewDeployment(m, ds.Graph.Clone()); err != nil {
		t.Fatal(err)
	}
	return h, nil
}

// mustPool is newPool with no wrapper and nothing cut.
func mustPool(t *testing.T, n int) *poolHarness {
	t.Helper()
	h, err := newPool(t, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// requireAllUp fails unless every worker reports up at the router's version.
func requireAllUp(t *testing.T, tag string, rt *shard.Router) {
	t.Helper()
	for _, st := range rt.Describe().Shards {
		if st.State != "up" || st.Version != rt.Version() {
			t.Fatalf("%s: worker %d %s at version %d (router at %d): %s",
				tag, st.Shard, st.State, st.Version, rt.Version(), st.Err)
		}
	}
}

// TestRetryRecoversTransientFailures: transient faults within the retry
// budget are invisible to callers; beyond it the pool surfaces as
// ErrUnavailable, never a hang. (One worker: the faults exercise the
// router's own retry loop, not failover.)
func TestRetryRecoversTransientFailures(t *testing.T) {
	h := mustPool(t, 1)
	ds, m := shard.TestFixture(t)
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K}
	want, err := h.dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}

	h.inj.FailNext(2) // within the budget of Retries=2 (3 attempts)
	got, err := h.rt.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatalf("retry did not absorb transient faults: %v", err)
	}
	for i := range want.Pred {
		if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
			t.Fatalf("answer drifted at %d after retries", i)
		}
	}

	h.inj.FailNext(1000) // beyond any budget
	if _, err := h.rt.Infer(ds.Split.Test, opt); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("exhausted retries: got %v, want ErrUnavailable", err)
	}
	h.inj.FailNext(0)
	if _, err := h.rt.Infer(ds.Split.Test, opt); err != nil {
		t.Fatalf("recovered transport still failing: %v", err)
	}
	if h.inj.Injected() == 0 {
		t.Fatal("chaos injected no faults — the suite tested nothing")
	}
}

// TestDeltaOutageHealsByReplay: a delta commits while no replay can reach
// a worker, and leaves every worker's record as it was — up, at version 1.
// The next Infer finds each worker stale, fails to replay to it and takes
// it down; once replays get through, the next Infer heals the worker it
// reaches before it answers and the probe heals the other — the
// stale-worker path with no worker process involved.
func TestDeltaOutageHealsByReplay(t *testing.T) {
	h := mustPool(t, 2)
	ds, m := shard.TestFixture(t)
	deltas := shard.TestDeltasFor(ds.Graph, rand.New(rand.NewSource(99)))

	h.inj.SetDropDeltas(true)
	if _, err := h.dep.ApplyDelta(deltas[0].Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.rt.ApplyDelta(deltas[0].Clone()); err != nil {
		t.Fatalf("delta failed the call: %v", err)
	}
	if h.rt.Version() != 2 {
		t.Fatalf("router version %d after committed delta, want 2", h.rt.Version())
	}
	for _, st := range h.rt.Describe().Shards {
		if !st.Up || st.Version != 1 {
			t.Fatalf("worker %d %s at version %d after a delta, want its record untouched", st.Shard, st.State, st.Version)
		}
	}
	opt := core.InferenceOptions{Mode: core.ModeGate, TMin: 1, TMax: m.K}
	if _, err := h.rt.Infer(ds.Split.Test, opt); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("no worker can catch up: got %v, want ErrUnavailable", err)
	}
	if h.rt.Describe().Healthy() {
		t.Fatal("workers marked up after their replays failed")
	}

	h.inj.SetDropDeltas(false)
	want, err := h.dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.rt.Infer(ds.Split.Test, opt) // stale worker → catch-up replay
	if err != nil {
		t.Fatalf("post-outage infer: %v", err)
	}
	for i := range want.Pred {
		if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
			t.Fatalf("answer drifted at %d after replay", i)
		}
	}
	if !h.rt.Describe().Healthy() {
		t.Fatal("no worker marked up after a successful replay")
	}
	h.rt.Probe(context.Background())
	requireAllUp(t, "after the probe", h.rt)
}

// TestReplicaFailoverRoutesAround: with three workers, partitioning one is
// invisible to callers — inference fails over to another worker with
// answers bit-identical to the unsharded deployment — and healing the
// partition lets the probe re-admit it without a router restart.
func TestReplicaFailoverRoutesAround(t *testing.T) {
	h := mustPool(t, 3)
	ds, _ := shard.TestFixture(t)

	h.inj.Partition(1)
	shard.TestRequireSameAnswers(t, "one worker partitioned", h.rt, h.dep, ds.Split.Test)
	if !h.rt.Describe().Healthy() {
		t.Fatal("router degraded although two workers are live")
	}
	if h.rt.Describe().Failovers == 0 {
		t.Fatal("no failover recorded despite a partitioned worker")
	}
	if h.inj.Injected() == 0 {
		t.Fatal("chaos injected no faults — the suite tested nothing")
	}

	// The worker is marked down and skipped, so steady traffic pays no
	// extra per-call retries once routing has settled.
	before := h.rt.Describe().Failovers
	shard.TestRequireSameAnswers(t, "partition settled", h.rt, h.dep, ds.Split.Test)
	if after := h.rt.Describe().Failovers; after != before {
		t.Fatalf("settled routing still retrying: %d extra attempts", after-before)
	}

	h.inj.Heal()
	h.rt.Probe(context.Background())
	requireAllUp(t, "after heal+probe", h.rt)
	shard.TestRequireSameAnswers(t, "after heal", h.rt, h.dep, ds.Split.Test)
}

// TestReplicaDeltaStragglerRejoins: deltas commit at the router while a
// worker is partitioned, and no worker is marked by them. The reads that
// follow replay the log to the reachable workers and mark the straggler
// down at its first call; then the heal+probe replays the delta-log suffix
// and re-admits it, with answers staying bit-identical throughout.
func TestReplicaDeltaStragglerRejoins(t *testing.T) {
	h := mustPool(t, 3)
	ds, _ := shard.TestFixture(t)

	h.inj.Partition(0)
	for di, d := range shard.TestDeltasFor(ds.Graph, rand.New(rand.NewSource(99))) {
		if _, err := h.dep.ApplyDelta(d.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := h.rt.ApplyDelta(d.Clone()); err != nil {
			t.Fatalf("delta %d with a worker partitioned: %v", di, err)
		}
	}
	if !h.rt.Describe().Shards[0].Up {
		t.Fatal("a delta marked the partitioned worker: it is marked at its next call")
	}
	targets := ds.Split.Test
	for v := ds.Graph.N(); v < h.dep.Graph.N(); v++ {
		targets = append(targets, v)
	}
	shard.TestRequireSameAnswers(t, "straggler partitioned", h.rt, h.dep, targets)

	// The straggler shows up in the per-worker health report.
	if st := h.rt.Describe().Shards[0]; st.Up {
		t.Fatalf("partitioned worker reported up: %+v", st)
	}

	h.inj.Heal()
	h.rt.Probe(context.Background()) // replays the missed deltas, re-validates
	requireAllUp(t, "after rejoin", h.rt)
	shard.TestRequireSameAnswers(t, "straggler rejoined", h.rt, h.dep, targets)
}

// TestAllReplicasDownUnavailable: the pool goes dark only when every worker
// is down — then requests get ErrUnavailable (503 at the serving layer),
// and healing restores service without a restart.
func TestAllReplicasDownUnavailable(t *testing.T) {
	h := mustPool(t, 3)
	ds, m := shard.TestFixture(t)

	h.inj.Partition(0, 1, 2)
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}
	if _, err := h.rt.Infer(ds.Split.Test, opt); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("every worker down: got %v, want ErrUnavailable", err)
	}
	h.rt.Probe(context.Background())
	if h.rt.Describe().Healthy() {
		t.Fatal("router healthy with every worker partitioned")
	}

	h.inj.Heal()
	h.rt.Probe(context.Background())
	requireAllUp(t, "after heal", h.rt)
	shard.TestRequireSameAnswers(t, "after heal", h.rt, h.dep, ds.Split.Test)
}

// TestReplicaChaosUnderRace soaks the pool in probabilistic chaos — drops
// and dropped replies on every call type — and requires every inference
// that returns to be bit-identical to the reference. Run under -race: it
// also shakes out locking bugs in the failover paths.
func TestReplicaChaosUnderRace(t *testing.T) {
	h := mustPool(t, 4)
	ds, m := shard.TestFixture(t)

	h.inj.AddRule(chaos.Rule{Op: chaos.OpInfer, Shard: chaos.AnyShard, PFail: 0.15, PDropReply: 0.05})
	h.inj.AddRule(chaos.Rule{Op: chaos.OpDelta, Shard: chaos.AnyShard, PFail: 0.10})

	opt := core.InferenceOptions{Mode: core.ModeGate, TMin: 1, TMax: m.K}
	want, err := h.dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for round := 0; round < 40; round++ {
		got, err := h.rt.Infer(ds.Split.Test, opt)
		if err != nil {
			if errors.Is(err, shard.ErrUnavailable) {
				continue // a round where chaos downed every worker — allowed
			}
			t.Fatalf("round %d: %v", round, err)
		}
		served++
		for i := range want.Pred {
			if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
				t.Fatalf("round %d: answer drifted at %d under chaos", round, i)
			}
		}
	}
	if served == 0 {
		t.Fatal("chaos downed every round — nothing was tested")
	}
	if h.inj.Injected() == 0 {
		t.Fatal("chaos injected no faults")
	}
}

// TestAnyWorkerAnswers: which worker answers must not matter. For P ∈
// {1, 2, 4} at f64, f32 and int8, a router with every worker but i cut off must
// answer like the unsharded deployment at the same tier — predictions,
// depths, depth histogram and the books of those depths — for every i, before and after the
// staged deltas.
func TestAnyWorkerAnswers(t *testing.T) {
	ds, m := shard.TestFixture(t)
	for _, prec := range []kernel.Precision{kernel.PrecisionF64, kernel.PrecisionF32, kernel.PrecisionInt8} {
		for _, p := range []int{1, 2, 4} {
			workers := make([]*shard.Worker, p)
			for i := range workers {
				w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{Precision: prec}, i)
				if err != nil {
					t.Fatal(err)
				}
				workers[i] = w
			}
			inj := chaos.New(shard.NewLocalTransport(workers), 1)
			cfg := shard.TestFastRetry(p)
			cfg.Precision = prec
			rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), cfg, inj)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := core.NewDeployment(m, ds.Graph.Clone())
			if err != nil {
				t.Fatal(err)
			}
			dep.SetPrecision(prec)
			eachWorker := func(stage string) {
				targets := ds.Split.Test
				for v := ds.Graph.N(); v < dep.Graph.N(); v++ {
					targets = append(targets, v)
				}
				for i := range p {
					inj.Heal()
					for j := range p {
						if j != i {
							inj.Partition(j)
						}
					}
					shard.TestRequireSameAnswers(t, fmt.Sprintf("%s/P=%d/%s/worker %d alone", prec, p, stage, i), rt, dep, targets)
				}
				inj.Heal()
			}
			eachWorker("bootstrapped")
			for di, d := range shard.TestDeltasFor(ds.Graph, rand.New(rand.NewSource(99))) {
				if _, err := dep.ApplyDelta(d.Clone()); err != nil {
					t.Fatal(err)
				}
				if _, err := rt.ApplyDelta(d.Clone()); err != nil {
					t.Fatalf("%s/P=%d delta %d: %v", prec, p, di, err)
				}
			}
			eachWorker("after deltas")
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestZeroDowntimeReplacement walks the documented worker-replacement
// procedure over real sockets with three workers: drain one (it starts
// refusing RPCs, so routing diverts), commit deltas it never sees, kill its
// process, start a replacement on the same address from the deterministic
// bootstrap, and let the probe replay it back in — the router never
// restarts and answers stay bit-identical throughout. The status rows carry
// the workers' addresses.
func TestZeroDowntimeReplacement(t *testing.T) {
	ds, m := shard.TestFixture(t)

	serveWorkerAt := func(addr string, id int) (*shard.Worker, *http.Server, string) {
		w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{}, id)
		if err != nil {
			t.Fatal(err)
		}
		ln := shard.TestListenAt(t, addr)
		srv := &http.Server{Handler: shard.WorkerHandler(w)}
		go srv.Serve(ln)
		return w, srv, ln.Addr().String()
	}

	oldW, oldSrv, oldAddr := serveWorkerAt("", 0)
	_, srv1, addr1 := serveWorkerAt("", 1)
	defer srv1.Close()
	_, srv2, addr2 := serveWorkerAt("", 2)
	defer srv2.Close()

	addrs := []string{oldAddr, addr1, addr2}
	tr := shard.NewHTTPTransport(addrs, shard.HTTPTransportConfig{CallTimeout: 5 * time.Second})
	rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), shard.TestFastRetry(len(addrs)), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i, st := range rt.Describe().Shards {
		if st.Addr != "http://"+addrs[i] {
			t.Fatalf("worker %d labelled %q, want its address %q", i, st.Addr, addrs[i])
		}
	}
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}

	// Step 1: drain the old worker. Its endpoints 503, routing diverts to
	// the others, and no caller sees an error.
	oldW.StartDrain()
	shard.TestRequireSameAnswers(t, "draining", rt, dep, ds.Split.Test)
	rt.Probe(context.Background())
	if !rt.Describe().Healthy() {
		t.Fatalf("router degraded while two workers are live: %+v", rt.Describe().Shards)
	}
	if st := rt.Describe().Shards[0]; st.Up {
		t.Fatalf("draining worker still marked up: %+v", st)
	}

	// Step 2: deltas keep committing while the old worker refuses them.
	for di, d := range shard.TestDeltasFor(ds.Graph, rand.New(rand.NewSource(99))) {
		if _, err := dep.ApplyDelta(d.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.ApplyDelta(d.Clone()); err != nil {
			t.Fatalf("delta %d during drain: %v", di, err)
		}
	}

	// Step 3: the drained process exits; its replacement boots fresh on the
	// same address (deterministic bootstrap, graph version 1).
	oldSrv.Close()
	_, newSrv, _ := serveWorkerAt(oldAddr, 0)
	defer newSrv.Close()

	// Step 4: the probe replays the missed deltas and re-admits it.
	rt.Probe(context.Background())
	requireAllUp(t, "after replacement", rt)
	targets := ds.Split.Test
	for v := ds.Graph.N(); v < dep.Graph.N(); v++ {
		targets = append(targets, v)
	}
	shard.TestRequireSameAnswers(t, "replacement rejoined", rt, dep, targets)
}

// TestJitterInjection: retry backoff draws its sleep from the injectable
// jitter source — full jitter over a doubling cap — so backoff-dependent
// tests are deterministic and the retry storm from a fleet of routers
// decorrelates in production.
func TestJitterInjection(t *testing.T) {
	ds, m := shard.TestFixture(t)
	w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(shard.NewLocalTransport([]*shard.Worker{w}), 7)

	var mu sync.Mutex
	var caps []time.Duration
	cfg := shard.TestFastRetry(1)
	cfg.RetryBackoff = 4 * time.Millisecond
	cfg.Jitter = func(max time.Duration) time.Duration {
		mu.Lock()
		caps = append(caps, max)
		mu.Unlock()
		return 0 // deterministic: never actually sleep
	}
	rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), cfg, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// One worker, so each injected fault fails a whole round.
	inj.FailNext(2) // absorbed by the Retries=2 budget
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}
	if _, err := rt.Infer(ds.Split.Test, opt); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(caps) != 2 || caps[0] != 4*time.Millisecond || caps[1] != 8*time.Millisecond {
		t.Fatalf("jitter caps %v, want [4ms 8ms] (full jitter over a doubling cap)", caps)
	}
}

// TestReplicaSetValidation: a pool needs at least one worker, and a
// transport index with no worker behind it is a down row, not a latent
// routing bug — it is never routed to while the others answer.
func TestReplicaSetValidation(t *testing.T) {
	ds, m := shard.TestFixture(t)
	workers := make([]*shard.Worker, 2)
	for i := range workers {
		w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{}, i)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	tr := shard.NewLocalTransport(workers)
	if _, err := shard.NewRouterTransport(m, ds.Graph.Clone(), shard.TestFastRetry(0), tr); err == nil {
		t.Fatal("a pool of zero workers accepted")
	}
	rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), shard.TestFastRetry(3), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sts := rt.Describe().Shards
	if len(sts) != 3 || !sts[0].Up || !sts[1].Up || sts[2].Up || sts[2].Err == "" {
		t.Fatalf("worker rows %+v, want 0 and 1 up, 2 down with an error", sts)
	}
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	shard.TestRequireSameAnswers(t, "beside a missing worker", rt, dep, ds.Split.Test)
	if info := rt.Describe(); info.Failovers != 0 {
		t.Fatalf("%d failovers: the missing worker was routed to", info.Failovers)
	}
}

// deltaCounter counts the ApplyDelta calls that reach each transport index,
// and in calls every call of any kind (it sits beneath the chaos injector,
// so dropped ones do not count).
type deltaCounter struct {
	shard.Transport
	mu     sync.Mutex
	counts map[int]int
	calls  int
}

func (c *deltaCounter) ApplyDelta(ctx context.Context, i int, sd *shard.ShardDelta) error {
	c.mu.Lock()
	c.counts[i]++
	c.calls++
	c.mu.Unlock()
	return c.Transport.ApplyDelta(ctx, i, sd)
}

func (c *deltaCounter) Infer(ctx context.Context, i int, req *shard.InferRequest) (*core.Result, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Transport.Infer(ctx, i, req)
}

func (c *deltaCounter) Health(ctx context.Context, i int) (shard.HealthInfo, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Transport.Health(ctx, i)
}

// shipped reports the deltas that reached worker i.
func (c *deltaCounter) shipped(i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[i]
}

// total reports the calls of any kind that reached any worker.
func (c *deltaCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestReplayStampede: concurrent requests that all find the same worker
// behind must ship the missing log suffix to it once, not once each.
func TestReplayStampede(t *testing.T) {
	ds, _ := shard.TestFixture(t)
	counter := &deltaCounter{counts: map[int]int{}}
	h, err := newPool(t, 2, func(tr shard.Transport) shard.Transport {
		counter.Transport = tr
		return counter
	})
	if err != nil {
		t.Fatal(err)
	}

	// Three deltas commit on the router; none reaches a worker.
	for _, d := range shard.TestDeltasFor(ds.Graph, rand.New(rand.NewSource(99)))[:3] {
		if _, err := h.dep.ApplyDelta(d.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := h.rt.ApplyDelta(d.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if n := counter.counts[0] + counter.counts[1]; n != 0 {
		t.Fatalf("%d deltas reached the workers at delta time", n)
	}

	// Eight callers arrive at once. Both workers are still up, so
	// round-robin sends four to each, and each worker finds itself three
	// versions behind: the suffix ships once per worker, not once per
	// caller.
	targets := ds.Split.Test
	opt := shard.TestInferOpts(h.dep.Model)[0]
	want, err := h.dep.Infer(targets, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := h.rt.Infer(targets, opt)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want.Pred {
				if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
					t.Errorf("answer drifted at %d after the shared replay", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter.counts[0] != 3 || counter.counts[1] != 3 {
		t.Fatalf("deltas replayed per worker %v, want exactly 3 to each", counter.counts)
	}
}

// TestDeltaReachesWorkersByReplay pins how a delta reaches the workers, for
// P ∈ {1, 2, 4} over both transports: ApplyDelta makes no transport call
// and leaves every worker's record as it was; the next Infer that lands on
// a worker ships it exactly the log suffix it misses, and answers like the
// unsharded deployment, books included; Probe brings every row to the
// router's version; with every worker cut, ApplyDelta still returns the
// committed result and a nil error; and a malformed delta returns a
// *graph.ValidationError with nothing changed anywhere.
func TestDeltaReachesWorkersByReplay(t *testing.T) {
	ds, m := shard.TestFixture(t)
	for _, transport := range []string{"local", "http"} {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", transport, p), func(t *testing.T) {
				workers := make([]*shard.Worker, p)
				addrs := make([]string, p)
				for i := range workers {
					w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{}, i)
					if err != nil {
						t.Fatal(err)
					}
					workers[i] = w
					if transport == "http" {
						srv := httptest.NewServer(shard.WorkerHandler(w))
						t.Cleanup(srv.Close)
						addrs[i] = srv.URL
					}
				}
				var tr shard.Transport = shard.NewLocalTransport(workers)
				if transport == "http" {
					tr = shard.NewHTTPTransport(addrs, shard.HTTPTransportConfig{CallTimeout: 5 * time.Second})
				}
				counter := &deltaCounter{Transport: tr, counts: map[int]int{}}
				inj := chaos.New(counter, 1)
				rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), shard.TestFastRetry(p), inj)
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				dep, err := core.NewDeployment(m, ds.Graph.Clone())
				if err != nil {
					t.Fatal(err)
				}

				// apply commits deltas at both and requires that the router
				// made no transport call and changed no worker's record.
				apply := func(stage string, deltas ...graph.Delta) {
					t.Helper()
					rows := rt.Describe().Shards
					calls := counter.total()
					for di, d := range deltas {
						if _, err := dep.ApplyDelta(d.Clone()); err != nil {
							t.Fatal(err)
						}
						dr, err := rt.ApplyDelta(d.Clone())
						if err != nil || dr == nil {
							t.Fatalf("%s delta %d: result %v, error %v", stage, di, dr, err)
						}
					}
					if after := counter.total(); after != calls {
						t.Fatalf("%s: ApplyDelta made %d transport calls", stage, after-calls)
					}
					for i, st := range rt.Describe().Shards {
						if st.State != rows[i].State || st.Version != rows[i].Version || st.Version >= rt.Version() {
							t.Fatalf("%s: worker %d went %s v%d → %s v%d (router v%d)", stage, i,
								rows[i].State, rows[i].Version, st.State, st.Version, rt.Version())
						}
					}
				}
				targets := func() []int {
					out := append([]int(nil), ds.Split.Test...)
					for v := ds.Graph.N(); v < dep.Graph.N(); v++ {
						out = append(out, v)
					}
					return out
				}
				// requireShipped checks that worker i was shipped each logged
				// delta exactly once.
				requireShipped := func(stage string, i int) {
					t.Helper()
					if n := counter.shipped(i); n != int(rt.Version()-1) {
						t.Fatalf("%s: worker %d was shipped %d deltas in all, want the %d the router logged",
							stage, i, n, rt.Version()-1)
					}
				}

				var val *graph.ValidationError
				calls := counter.total()
				if dr, err := rt.ApplyDelta(graph.Delta{Src: []int{-1}, Dst: []int{0}}); dr != nil || !errors.As(err, &val) {
					t.Fatalf("malformed delta: result %v, error %v, want a *graph.ValidationError alone", dr, err)
				}
				if counter.total() != calls || rt.Version() != 1 ||
					!slices.Equal(rt.Adjacency().RowPtr, ds.Graph.Adj.RowPtr) {
					t.Fatal("a malformed delta changed something")
				}

				deltas := shard.TestDeltasFor(ds.Graph, rand.New(rand.NewSource(99)))
				apply("first half", deltas[:2]...)
				for i := range p {
					for j := range p {
						if j != i {
							inj.Partition(j)
						}
					}
					shard.TestRequireSameAnswers(t, fmt.Sprintf("worker %d alone", i), rt, dep, targets())
					inj.Heal()
					requireShipped(fmt.Sprintf("worker %d's read", i), i)
				}

				apply("second half", deltas[2:]...)
				rt.Probe(context.Background())
				requireAllUp(t, "after the probe", rt)
				for i := range p {
					requireShipped("probe", i)
				}
				shard.TestRequireSameAnswers(t, "after the probe", rt, dep, targets())

				inj.Partition(chaos.AnyShard)
				f := ds.Graph.F()
				apply("full outage", graph.Delta{Features: mat.New(1, f), Labels: []int{0},
					Src: []int{0}, Dst: []int{dep.Graph.N()}})
				inj.Heal()
				rt.Probe(context.Background())
				requireAllUp(t, "after the outage", rt)
				shard.TestRequireSameAnswers(t, "after the outage", rt, dep, targets())
			})
		}
	}
}

// TestDivergedWorkerGoesDown: a worker bootstrapped with an edge the router
// lacks holds a graph diverged from the router's. A later router delta adding
// that edge changes nothing on the worker, so replaying it must take the
// worker down — at the read that replays it and at the probe — while the
// other worker answers like the unsharded deployment.
func TestDivergedWorkerGoesDown(t *testing.T) {
	ds, m := shard.TestFixture(t)
	n := ds.Graph.N()
	edge := graph.Delta{Src: []int{0}, Dst: []int{n - 1}}
	diverged := ds.Graph.Clone()
	if dr, err := diverged.ApplyDelta(edge.Clone()); err != nil || len(dr.Dirty) == 0 {
		t.Fatalf("fixture already holds the edge (%v, %v)", dr, err)
	}
	workers := make([]*shard.Worker, 2)
	for i, g := range []*graph.Graph{diverged, ds.Graph.Clone()} {
		w, err := shard.NewWorker(m, g, shard.Config{}, i)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), shard.TestFastRetry(2), shard.NewLocalTransport(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.ApplyDelta(edge.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ApplyDelta(edge.Clone()); err != nil {
		t.Fatal(err)
	}

	requireDiverged := func(stage string) {
		t.Helper()
		sts := rt.Describe().Shards
		if sts[0].Up || !strings.Contains(sts[0].Err, "diverged") || !sts[1].Up {
			t.Fatalf("%s: worker rows %+v, want 0 down as diverged and 1 up", stage, sts)
		}
	}
	shard.TestRequireSameAnswers(t, "beside a diverged worker", rt, dep, ds.Split.Test)
	requireDiverged("after the reads")
	rt.Probe(context.Background())
	requireDiverged("after the probe")
}

// TestFailoverCounterNeedsAPeer: a failover is a call that went on to
// another worker. A one-worker pool has nowhere to go, so however its calls
// fail the counter stays zero (the retry rounds are not failovers).
func TestFailoverCounterNeedsAPeer(t *testing.T) {
	h := mustPool(t, 1)
	ds, m := shard.TestFixture(t)
	h.inj.FailNext(1000)
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}
	if _, err := h.rt.Infer(ds.Split.Test, opt); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	if info := h.rt.Describe(); info.Failovers != 0 {
		t.Fatalf("one-worker pool reports %d failovers", info.Failovers)
	}
}

// scratchStamper reports a known scratch footprint per transport index (the
// workers' own reading comes from a sync.Pool, which the race detector
// empties at random).
type scratchStamper struct{ shard.Transport }

func (s scratchStamper) Health(ctx context.Context, i int) (shard.HealthInfo, error) {
	info, err := s.Transport.Health(ctx, i)
	info.ScratchBytes = 1000 << i
	return info, err
}

// TestScratchBytesSumsEveryEndpoint: the fleet's scratch footprint is every
// worker's last report.
func TestScratchBytesSumsEveryEndpoint(t *testing.T) {
	h, err := newPool(t, 4, func(tr shard.Transport) shard.Transport {
		return scratchStamper{tr}
	})
	if err != nil {
		t.Fatal(err)
	}
	h.rt.Probe(context.Background())
	if got, want := h.rt.Describe().ScratchBytes, 1000+2000+4000+8000; got != want {
		t.Fatalf("fleet scratch %d B, the four workers report %d B", got, want)
	}
}

// TestUnevenGroups: workers can be lost one by one down to the last, and
// every request still answers bit-identically from whoever is left; the
// per-worker rows name exactly the lost ones.
func TestUnevenGroups(t *testing.T) {
	h := mustPool(t, 3)
	ds, _ := shard.TestFixture(t)
	for lost := 1; lost < 3; lost++ {
		h.inj.Partition(lost - 1)
		tag := fmt.Sprintf("%d of 3 workers cut", lost)
		shard.TestRequireSameAnswers(t, tag, h.rt, h.dep, ds.Split.Test)
		h.rt.Probe(context.Background())
		info := h.rt.Describe()
		if !info.Healthy() {
			t.Fatalf("%s: router degraded: %+v", tag, info.Shards)
		}
		for i, st := range info.Shards {
			if st.Up != (i >= lost) {
				t.Fatalf("%s: worker rows %+v, want the first %d down", tag, info.Shards, lost)
			}
		}
	}
}

// TestHandshakeNeedsOneEndpointPerGroup: a router starts while any worker
// passes the handshake — the rest rejoin through probes — and refuses to
// start when none does.
func TestHandshakeNeedsOneEndpointPerGroup(t *testing.T) {
	ds, _ := shard.TestFixture(t)
	h, err := newPool(t, 3, nil, 0, 1)
	if err != nil {
		t.Fatalf("two dead workers beside a live one: %v", err)
	}
	if sts := h.rt.Describe().Shards; sts[0].Up || sts[1].Up || !sts[2].Up {
		t.Fatalf("worker rows after a start-up with 0 and 1 dead: %+v", sts)
	}
	shard.TestRequireSameAnswers(t, "started degraded", h.rt, h.dep, ds.Split.Test)
	h.inj.Heal()
	h.rt.Probe(context.Background())
	requireAllUp(t, "workers dead at start-up after heal", h.rt)

	if _, err := newPool(t, 3, nil, 0, 1, 2); err == nil {
		t.Fatal("router started with no live worker")
	}
}
