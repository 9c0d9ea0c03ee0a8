// The replication and fault-injection suites live in this external test
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
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/shard"
)

// replicaHarness is a router over in-process worker replicas behind a chaos
// injector, plus the unsharded reference deployment. Shard p's replicas sit
// at consecutive flat transport indices (flat reports them), so
// chaos.Partition(flat) cuts off exactly one replica.
type replicaHarness struct {
	rt      *shard.Router
	inj     *chaos.Injector
	dep     *core.Deployment
	workers []*shard.Worker
	groups  [][]int
}

// newReplicaHarness builds shards × reps replicas.
func newReplicaHarness(t *testing.T, shards, reps int) *replicaHarness {
	t.Helper()
	layout := make([]int, shards)
	for p := range layout {
		layout[p] = reps
	}
	h, err := newGroupHarness(t, layout, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// newGroupHarness builds layout[p] replicas for shard p — groups may be
// uneven — wrapping the flat local transport in wrap (nil = none) beneath
// the injector and partitioning the cut indices before the router's
// start-up handshake runs. The router's construction error is returned.
func newGroupHarness(t *testing.T, layout []int, wrap func(shard.Transport) shard.Transport, cut ...int) (*replicaHarness, error) {
	t.Helper()
	ds, m := shard.TestFixture(t)
	h := &replicaHarness{groups: make([][]int, len(layout))}
	for p, reps := range layout {
		for j := 0; j < reps; j++ {
			w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{Shards: len(layout)}, p)
			if err != nil {
				t.Fatal(err)
			}
			h.groups[p] = append(h.groups[p], len(h.workers))
			h.workers = append(h.workers, w)
		}
	}
	var flat shard.Transport = shard.NewLocalTransport(h.workers)
	if wrap != nil {
		flat = wrap(flat)
	}
	h.inj = chaos.New(flat, 1)
	h.inj.Partition(cut...)
	var err error
	h.rt, err = shard.NewRouterGroups(m, ds.Graph.Clone(), shard.TestFastRetry(len(layout)), h.inj, h.groups, nil)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { h.rt.Close() })
	if h.dep, err = core.NewDeployment(m, ds.Graph.Clone()); err != nil {
		t.Fatal(err)
	}
	return h, nil
}

// flat returns the harness's flat transport index of shard p's replica j.
func (h *replicaHarness) flat(p, j int) int { return h.groups[p][j] }

// TestRetryRecoversTransientFailures: transient faults within the retry
// budget are invisible to callers; beyond it the shard surfaces as
// ErrUnavailable, never a hang. (Unreplicated: the faults exercise the
// router's own retry loop, not replica failover.)
func TestRetryRecoversTransientFailures(t *testing.T) {
	ds, m := shard.TestFixture(t)
	const p = 2
	workers := make([]*shard.Worker, p)
	for i := range workers {
		w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{Shards: p}, i)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	inj := chaos.New(shard.NewLocalTransport(workers), 7)
	rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), shard.TestFastRetry(p), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}

	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K}
	want, err := dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}

	inj.FailNext(2) // within the budget of Retries=2 (3 attempts)
	got, err := rt.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatalf("retry did not absorb transient faults: %v", err)
	}
	for i := range want.Pred {
		if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
			t.Fatalf("answer drifted at %d after retries", i)
		}
	}

	inj.FailNext(1000) // beyond any budget
	if _, err := rt.Infer(ds.Split.Test, opt); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("exhausted retries: got %v, want ErrUnavailable", err)
	}
	inj.FailNext(0)
	if _, err := rt.Infer(ds.Split.Test, opt); err != nil {
		t.Fatalf("recovered transport still failing: %v", err)
	}
	if inj.Injected() == 0 {
		t.Fatal("chaos injected no faults — the suite tested nothing")
	}
}

// TestDeltaOutageHealsByReplay: a delta the router cannot deliver commits
// anyway, and the starved shard is healed by delta-log replay on its next
// Infer — the stale-worker path with no worker process involved.
func TestDeltaOutageHealsByReplay(t *testing.T) {
	ds, m := shard.TestFixture(t)
	const p = 2
	workers := make([]*shard.Worker, p)
	for i := range workers {
		w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{Shards: p}, i)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	inj := chaos.New(shard.NewLocalTransport(workers), 7)
	rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), shard.TestFastRetry(p), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	deltas := shard.TestDeltasFor(ds.Graph, rng)

	inj.SetDropDeltas(true)
	if _, err := dep.ApplyDelta(deltas[0].Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ApplyDelta(deltas[0].Clone()); err != nil {
		t.Fatalf("undeliverable delta failed the call: %v", err)
	}
	if rt.Version() != 2 {
		t.Fatalf("router version %d after committed delta, want 2", rt.Version())
	}
	if rt.Describe().Healthy() {
		t.Fatal("shards marked up despite delta outage")
	}

	inj.SetDropDeltas(false)
	asg, err := shard.Partition(ds.Graph, p, shard.StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.InferenceOptions{Mode: core.ModeGate, TMin: 1, TMax: m.K}
	// One request owned by each shard, so each stale worker is caught up
	// by replay on its own Infer.
	for q, owned := range asg.Owned {
		want, err := dep.Infer(owned, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.Infer(owned, opt) // stale worker → catch-up replay
		if err != nil {
			t.Fatalf("post-outage infer on shard %d: %v", q, err)
		}
		for i := range want.Pred {
			if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
				t.Fatalf("shard %d: answer drifted at %d after replay", q, i)
			}
		}
	}
	if !rt.Describe().Healthy() {
		t.Fatal("shards still marked down after successful replay")
	}
}

// TestReplicaFailoverRoutesAround: with R=2, partitioning one replica is
// invisible to callers — inference fails over to the shard's peer with
// answers bit-identical to the unsharded deployment — and healing the
// partition lets the probe re-admit the replica without a router restart.
func TestReplicaFailoverRoutesAround(t *testing.T) {
	const shards, reps = 2, 2
	h := newReplicaHarness(t, shards, reps)
	ds, _ := shard.TestFixture(t)

	h.inj.Partition(h.flat(0, 1)) // cut shard 0's second replica

	shard.TestRequireSameAnswers(t, "one replica partitioned", h.rt, h.dep, ds.Split.Test)
	if h.rt.Describe().Healthy() == false {
		t.Fatal("router degraded although every shard has a live replica")
	}
	if h.rt.Describe().Failovers == 0 {
		t.Fatal("no failover recorded despite a partitioned replica")
	}
	if h.inj.Injected() == 0 {
		t.Fatal("chaos injected no faults — the suite tested nothing")
	}

	// The replica is marked down and skipped, so steady traffic pays no
	// extra per-call retries once routing has settled.
	before := h.rt.Describe().ReplicaRetries
	shard.TestRequireSameAnswers(t, "partition settled", h.rt, h.dep, ds.Split.Test)
	if after := h.rt.Describe().ReplicaRetries; after != before {
		t.Fatalf("settled routing still retrying: %d extra attempts", after-before)
	}

	h.inj.Heal()
	h.rt.Probe(context.Background())
	for p, st := range h.rt.Describe().Shards {
		for _, rst := range st.Replicas {
			if rst.State != "up" {
				t.Fatalf("shard %d replica %d %s after heal+probe: %s", p, rst.Replica, rst.State, rst.Err)
			}
		}
	}
	shard.TestRequireSameAnswers(t, "after heal", h.rt, h.dep, ds.Split.Test)
}

// TestReplicaDeltaStragglerRejoins: a partitioned replica misses deltas —
// the fan-out commits on its peer and marks the straggler down — then the
// heal+probe replays the delta-log suffix and re-admits it, with answers
// staying bit-identical throughout.
func TestReplicaDeltaStragglerRejoins(t *testing.T) {
	const shards, reps = 2, 2
	h := newReplicaHarness(t, shards, reps)
	ds, _ := shard.TestFixture(t)

	h.inj.Partition(h.flat(0, 0))
	rng := rand.New(rand.NewSource(99))
	for di, d := range shard.TestDeltasFor(ds.Graph, rng) {
		if _, err := h.dep.ApplyDelta(d.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := h.rt.ApplyDelta(d.Clone()); err != nil {
			t.Fatalf("delta %d with a replica partitioned: %v", di, err)
		}
	}
	targets := ds.Split.Test
	for v := ds.Graph.N(); v < h.dep.Graph.N(); v++ {
		targets = append(targets, v)
	}
	shard.TestRequireSameAnswers(t, "straggler partitioned", h.rt, h.dep, targets)

	// The straggler shows up in the per-replica health report.
	if rst := h.rt.Describe().Shards[0].Replicas[0]; rst.State == "up" {
		t.Fatalf("partitioned replica reported up: %+v", rst)
	}

	h.inj.Heal()
	h.rt.Probe(context.Background()) // replays the missed deltas, re-validates
	for p, st := range h.rt.Describe().Shards {
		for _, rst := range st.Replicas {
			if rst.State != "up" {
				t.Fatalf("shard %d replica %d %s after rejoin: %s", p, rst.Replica, rst.State, rst.Err)
			}
			if rst.Version != h.rt.Version() {
				t.Fatalf("shard %d replica %d at version %d, router at %d", p, rst.Replica, rst.Version, h.rt.Version())
			}
		}
	}
	shard.TestRequireSameAnswers(t, "straggler rejoined", h.rt, h.dep, targets)
}

// TestAllReplicasDownUnavailable: a shard goes dark only when every one of
// its replicas is down — then its requests get ErrUnavailable (503 at the
// serving layer), and healing restores service without a restart.
func TestAllReplicasDownUnavailable(t *testing.T) {
	const shards, reps = 2, 2
	h := newReplicaHarness(t, shards, reps)
	ds, m := shard.TestFixture(t)

	h.inj.Partition(h.flat(0, 0), h.flat(0, 1)) // all of shard 0
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}
	if _, err := h.rt.Infer(ds.Split.Test, opt); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("shard with every replica down: got %v, want ErrUnavailable", err)
	}
	h.rt.Probe(context.Background())
	if h.rt.Describe().Healthy() {
		t.Fatal("router healthy with a whole replica group partitioned")
	}

	h.inj.Heal()
	h.rt.Probe(context.Background())
	if !h.rt.Describe().Healthy() {
		t.Fatalf("router still degraded after heal: %+v", h.rt.Describe().Shards)
	}
	shard.TestRequireSameAnswers(t, "after group heal", h.rt, h.dep, ds.Split.Test)
}

// TestReplicaChaosUnderRace soaks replicated routing in probabilistic
// chaos — drops and dropped replies on every call type — and requires
// every inference that returns to be bit-identical to the reference. Run
// under -race: it also shakes out locking bugs in the failover paths.
func TestReplicaChaosUnderRace(t *testing.T) {
	const shards, reps = 2, 2
	h := newReplicaHarness(t, shards, reps)
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
				continue // a round where chaos downed a full group — allowed
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

// TestZeroDowntimeReplacement walks the documented worker-replacement
// procedure over real sockets with R=2: drain the old replica (it starts
// refusing RPCs, so routing diverts), commit deltas it never sees, kill
// its process, start a replacement on the same address from the
// deterministic bootstrap, and let the probe replay it back in — the
// router never restarts and answers stay bit-identical throughout.
func TestZeroDowntimeReplacement(t *testing.T) {
	ds, m := shard.TestFixture(t)
	const p = 2

	serveWorkerAt := func(addr string, shardID int) (*shard.Worker, *http.Server, string) {
		w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{Shards: p}, shardID)
		if err != nil {
			t.Fatal(err)
		}
		ln := shard.TestListenAt(t, addr)
		srv := &http.Server{Handler: shard.WorkerHandler(w)}
		go srv.Serve(ln)
		return w, srv, ln.Addr().String()
	}

	// Shard 0: two replicas (old + peer). Shard 1: one replica — uneven
	// replica counts are part of the contract.
	oldW, oldSrv, oldAddr := serveWorkerAt("", 0)
	_, peerSrv, peerAddr := serveWorkerAt("", 0)
	defer peerSrv.Close()
	_, s1Srv, s1Addr := serveWorkerAt("", 1)
	defer s1Srv.Close()

	addrs := [][]string{{oldAddr, peerAddr}, {s1Addr}}
	tr, groups := shard.NewHTTPGroups(addrs, shard.HTTPTransportConfig{CallTimeout: 5 * time.Second})
	rt, err := shard.NewRouterGroups(m, ds.Graph.Clone(), shard.TestFastRetry(p), tr, groups, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}

	// Step 1: drain the old replica. Its endpoints 503, routing diverts to
	// the peer, and no caller sees an error.
	oldW.StartDrain()
	shard.TestRequireSameAnswers(t, "draining", rt, dep, ds.Split.Test)
	rt.Probe(context.Background())
	if !rt.Describe().Healthy() {
		t.Fatalf("router degraded while a drained replica has a live peer: %+v", rt.Describe().Shards)
	}
	if rh := rt.Describe().Shards[0].Replicas; rh[0].State == "up" {
		t.Fatalf("draining replica still marked up: %+v", rh[0])
	}

	// Step 2: deltas keep committing while the old replica refuses them.
	rng := rand.New(rand.NewSource(99))
	deltas := shard.TestDeltasFor(ds.Graph, rng)
	for di, d := range deltas {
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
	for pi, st := range rt.Describe().Shards {
		if !st.Up {
			t.Fatalf("shard %d down after replacement: %s", pi, st.Err)
		}
		for _, rst := range st.Replicas {
			if rst.State != "up" {
				t.Fatalf("shard %d replica %d %s after replacement: %s", pi, rst.Replica, rst.State, rst.Err)
			}
		}
	}
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
	const p = 2
	workers := make([]*shard.Worker, p)
	for i := range workers {
		w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{Shards: p}, i)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	inj := chaos.New(shard.NewLocalTransport(workers), 7)

	var mu sync.Mutex // Jitter is called from the router's per-shard goroutines
	var caps []time.Duration
	cfg := shard.TestFastRetry(p)
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

	// Targets owned by shard 0 only: the request is one shard call, so both
	// injected faults land on its attempts however many cores run the test
	// (with two shard calls in flight each could take one fault instead).
	asg, err := shard.Partition(ds.Graph, p, shard.StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailNext(2) // absorbed by the Retries=2 budget of one shard call
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}
	if _, err := rt.Infer(asg.Owned[0], opt); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(caps) != 2 || caps[0] != 4*time.Millisecond || caps[1] != 8*time.Millisecond {
		t.Fatalf("jitter caps %v, want [4ms 8ms] (full jitter over a doubling cap)", caps)
	}
}

// TestReplicaSetValidation: malformed endpoint layouts are construction
// errors, not latent routing bugs.
func TestReplicaSetValidation(t *testing.T) {
	ds, m := shard.TestFixture(t)
	cfg := shard.TestFastRetry(2)
	var workers []*shard.Worker
	for _, p := range []int{0, 0, 1} {
		w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{Shards: 2}, p)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	tr := shard.NewLocalTransport(workers)
	if _, err := shard.NewRouterGroups(m, ds.Graph.Clone(), cfg, tr, [][]int{{0}, {}}, nil); err == nil {
		t.Fatal("empty replica group accepted")
	}
	if _, err := shard.NewRouterGroups(m, ds.Graph.Clone(), cfg, tr, [][]int{{0}, {0}}, nil); err == nil {
		t.Fatal("duplicate flat index accepted")
	}
	if _, err := shard.NewRouterGroups(m, ds.Graph.Clone(), cfg, tr, [][]int{{0, 1, 2}}, nil); err == nil {
		t.Fatal("one group for two shards accepted")
	}
	rt, err := shard.NewRouterGroups(m, ds.Graph.Clone(), cfg, tr, [][]int{{0, 1}, {2}}, [][]string{{"a", "b"}, {"c"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sts := rt.Describe().Shards
	if len(sts[0].Replicas) != 2 || len(sts[1].Replicas) != 1 {
		t.Fatalf("replica counts wrong: %d/%d", len(sts[0].Replicas), len(sts[1].Replicas))
	}
	if sts[0].Replicas[1].Addr != "b" {
		t.Fatalf("replica addr labels wrong: %+v", sts)
	}
}

// deltaCounter counts the ApplyDelta calls that reach each flat transport
// index (it sits beneath the chaos injector, so dropped ones do not count).
type deltaCounter struct {
	shard.Transport
	mu     sync.Mutex
	counts map[int]int
}

func (c *deltaCounter) ApplyDelta(ctx context.Context, flat int, sd *shard.ShardDelta) error {
	c.mu.Lock()
	c.counts[flat]++
	c.mu.Unlock()
	return c.Transport.ApplyDelta(ctx, flat, sd)
}

// TestReplayStampede: concurrent requests that all find the same worker
// behind must ship the missing log suffix to it once, not once each — every
// ShardDelta carries a weighted-sum copy and newcomer features.
func TestReplayStampede(t *testing.T) {
	ds, _ := shard.TestFixture(t)
	counter := &deltaCounter{counts: map[int]int{}}
	h, err := newGroupHarness(t, []int{1, 1}, func(tr shard.Transport) shard.Transport {
		counter.Transport = tr
		return counter
	})
	if err != nil {
		t.Fatal(err)
	}

	// Three deltas commit on the router while none reaches a worker.
	h.inj.SetDropDeltas(true)
	rng := rand.New(rand.NewSource(99))
	for _, d := range shard.TestDeltasFor(ds.Graph, rng)[:3] {
		if _, err := h.dep.ApplyDelta(d.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := h.rt.ApplyDelta(d.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	h.inj.SetDropDeltas(false)
	if n := counter.counts[0] + counter.counts[1]; n != 0 {
		t.Fatalf("%d deltas reached the workers during the outage", n)
	}

	// Eight callers hit shard 0 at once; each sees it three versions behind.
	asg, err := shard.Partition(ds.Graph, 2, shard.StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	targets := asg.Owned[0]
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
	if counter.counts[0] != 3 || counter.counts[1] != 0 {
		t.Fatalf("deltas delivered per worker %v, want exactly 3 to worker 0 and none to worker 1", counter.counts)
	}
}

// TestFailoverCounterNeedsAPeer: a failover is a call that went on to
// another endpoint. A one-endpoint shard has nowhere to go, so however its
// calls fail the counter stays zero (the retry rounds are not failovers).
func TestFailoverCounterNeedsAPeer(t *testing.T) {
	ds, m := shard.TestFixture(t)
	h, err := newGroupHarness(t, []int{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.inj.FailNext(1000)
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}
	if _, err := h.rt.Infer(ds.Split.Test, opt); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	if info := h.rt.Describe(); info.Failovers != 0 || info.ReplicaRetries != 0 {
		t.Fatalf("unreplicated fleet reports %d failovers, %d replica retries", info.Failovers, info.ReplicaRetries)
	}
}

// scratchStamper reports a known scratch footprint per flat index (the
// workers' own reading comes from a sync.Pool, which the race detector
// empties at random).
type scratchStamper struct{ shard.Transport }

func (s scratchStamper) Health(ctx context.Context, flat int) (shard.HealthInfo, error) {
	info, err := s.Transport.Health(ctx, flat)
	info.ScratchBytes = 1000 << flat
	return info, err
}

// TestScratchBytesSumsEveryEndpoint: the fleet's scratch footprint is every
// worker's last report, not one per shard.
func TestScratchBytesSumsEveryEndpoint(t *testing.T) {
	h, err := newGroupHarness(t, []int{2, 2}, func(tr shard.Transport) shard.Transport {
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

// TestUnevenGroups: with {2, 1} endpoints, losing shard 1's only endpoint
// makes its targets unavailable while shard 0's still answer, and losing one
// of shard 0's two is invisible.
func TestUnevenGroups(t *testing.T) {
	h, err := newGroupHarness(t, []int{2, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, m := shard.TestFixture(t)
	asg, err := shard.Partition(ds.Graph, 2, shard.StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}

	h.inj.Partition(h.flat(1, 0))
	if _, err := h.rt.Infer(asg.Owned[1], opt); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("shard 1 with its only endpoint cut: got %v, want ErrUnavailable", err)
	}
	shard.TestRequireSameAnswers(t, "shard 0 beside a dark shard 1", h.rt, h.dep, asg.Owned[0])
	if sts := h.rt.Describe().Shards; !sts[0].Up || sts[1].Up {
		t.Fatalf("shard health %+v, want shard 0 up and shard 1 down", sts)
	}

	h.inj.Heal()
	h.inj.Partition(h.flat(0, 1))
	for p, owned := range asg.Owned { // one request per shard reaches every group
		shard.TestRequireSameAnswers(t, fmt.Sprintf("one of shard 0's two cut, shard %d's targets", p), h.rt, h.dep, owned)
	}
	if !h.rt.Describe().Healthy() {
		t.Fatalf("router degraded although every shard has a live endpoint: %+v", h.rt.Describe().Shards)
	}
}

// TestHandshakeNeedsOneEndpointPerGroup: a router starts over a group with
// a dead endpoint as long as a peer passes the handshake, and refuses to
// start over a group with none.
func TestHandshakeNeedsOneEndpointPerGroup(t *testing.T) {
	ds, _ := shard.TestFixture(t)
	h, err := newGroupHarness(t, []int{2, 1}, nil, 1)
	if err != nil {
		t.Fatalf("one dead endpoint beside a live peer: %v", err)
	}
	if st := h.rt.Describe().Shards[0]; !st.Up || st.Replicas[0].State != "up" || st.Replicas[1].State == "up" {
		t.Fatalf("shard 0 after a start-up with replica 1 dead: %+v", st)
	}
	shard.TestRequireSameAnswers(t, "started degraded", h.rt, h.dep, ds.Split.Test)
	h.inj.Heal()
	h.rt.Probe(context.Background())
	if st := h.rt.Describe().Shards[0].Replicas[1]; st.State != "up" {
		t.Fatalf("endpoint dead at start-up did not rejoin: %+v", st)
	}

	if _, err := newGroupHarness(t, []int{2, 1}, nil, 0, 1); err == nil {
		t.Fatal("router started over a group with no live endpoint")
	}
}
