// The replication and fault-injection suites live in this external test
// package (not package shard) because they drive faults through
// internal/chaos, which imports internal/shard — an in-package test file
// importing it would be an import cycle. In-package helpers arrive through
// export_test.go.
package shard_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/shard"
)

// replicaHarness is a router over shards×reps in-process worker replicas
// behind a chaos injector, plus the unsharded reference deployment. Shard
// p's replicas sit at flat transport indices p*reps … p*reps+reps-1, so
// chaos.Partition(flat) cuts off exactly one replica.
type replicaHarness struct {
	rt  *shard.Router
	inj *chaos.Injector
	rs  *shard.ReplicaSet
	dep *core.Deployment
}

func newReplicaHarness(t *testing.T, shards, reps int) *replicaHarness {
	t.Helper()
	ds, m := shard.TestFixture(t)
	var workers []*shard.Worker
	groups := make([][]int, shards)
	for p := 0; p < shards; p++ {
		for j := 0; j < reps; j++ {
			w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{Shards: shards}, p)
			if err != nil {
				t.Fatal(err)
			}
			groups[p] = append(groups[p], len(workers))
			workers = append(workers, w)
		}
	}
	inj := chaos.New(shard.NewLocalTransport(workers), 1)
	rs, err := shard.NewReplicaSet(inj, groups, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), shard.TestFastRetry(shards), rs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return &replicaHarness{rt: rt, inj: inj, rs: rs, dep: dep}
}

// flat returns the harness's flat transport index of shard p's replica j.
func (h *replicaHarness) flat(p, reps, j int) int { return p*reps + j }

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
	opt := core.InferenceOptions{Mode: core.ModeGate, TMin: 1, TMax: m.K}
	want, err := dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.Infer(ds.Split.Test, opt) // stale workers → catch-up replay
	if err != nil {
		t.Fatalf("post-outage infer: %v", err)
	}
	for i := range want.Pred {
		if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
			t.Fatalf("answer drifted at %d after replay", i)
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

	h.inj.Partition(h.flat(0, reps, 1)) // cut shard 0's second replica

	shard.TestRequireSameAnswers(t, "one replica partitioned", h.rt, h.dep, ds.Split.Test)
	if h.rt.Describe().Healthy() == false {
		t.Fatal("router degraded although every shard has a live replica")
	}
	if h.rs.Failovers() == 0 {
		t.Fatal("no failover recorded despite a partitioned replica")
	}
	if h.inj.Injected() == 0 {
		t.Fatal("chaos injected no faults — the suite tested nothing")
	}

	// The replica is marked down and skipped, so steady traffic pays no
	// extra per-call retries once routing has settled.
	before := h.rs.ReplicaRetries()
	shard.TestRequireSameAnswers(t, "partition settled", h.rt, h.dep, ds.Split.Test)
	if after := h.rs.ReplicaRetries(); after != before {
		t.Fatalf("settled routing still retrying: %d extra attempts", after-before)
	}

	h.inj.Heal()
	h.rt.Probe(context.Background())
	for p, grp := range h.rs.ReplicaHealth() {
		for _, rst := range grp {
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

	h.inj.Partition(h.flat(0, reps, 0))
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
	if rh := h.rs.ReplicaHealth(); rh[0][0].State == "up" {
		t.Fatalf("partitioned replica reported up: %+v", rh[0][0])
	}

	h.inj.Heal()
	h.rt.Probe(context.Background()) // replays the missed deltas, re-validates
	for p, grp := range h.rs.ReplicaHealth() {
		for _, rst := range grp {
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

	h.inj.Partition(h.flat(0, reps, 0), h.flat(0, reps, 1)) // all of shard 0
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
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var ln net.Listener
		for attempt := 0; ; attempt++ {
			ln, err = net.Listen("tcp", addr)
			if err == nil {
				break
			}
			if attempt > 50 {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
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

	rs, err := shard.NewHTTPReplicaSet([][]string{{oldAddr, peerAddr}, {s1Addr}},
		shard.HTTPTransportConfig{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), shard.TestFastRetry(p), rs)
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
	asg, err := shard.Partition(ds.Graph, p, cfg.Strategy)
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

// TestReplicaSetValidation: malformed replica layouts are construction
// errors, not latent routing bugs.
func TestReplicaSetValidation(t *testing.T) {
	if _, err := shard.NewReplicaSet(shard.NewLocalTransport(nil), [][]int{{0}, {}}, nil); err == nil {
		t.Fatal("empty replica group accepted")
	}
	if _, err := shard.NewReplicaSet(shard.NewLocalTransport(nil), [][]int{{0}, {0}}, nil); err == nil {
		t.Fatal("duplicate flat index accepted")
	}
	rs, err := shard.NewReplicaSet(shard.NewLocalTransport(nil), [][]int{{0, 1}, {2}}, [][]string{{"a", "b"}, {"c"}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replicas(0) != 2 || rs.Replicas(1) != 1 || rs.Replicas(9) != 0 {
		t.Fatalf("replica counts wrong: %d/%d/%d", rs.Replicas(0), rs.Replicas(1), rs.Replicas(9))
	}
	if _, err := rs.Infer(context.Background(), 5, &shard.InferRequest{}); err == nil {
		t.Fatal("out-of-range shard id accepted")
	}
	if rh := rs.ReplicaHealth(); rh[0][1].Addr != "b" {
		t.Fatalf("replica addr labels wrong: %+v", rh)
	}
}
