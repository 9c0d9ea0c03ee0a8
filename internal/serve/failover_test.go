package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/shard"
)

// newReplicatedServer builds the daemon over a pool of four workers with a
// chaos injector between the router and the transport, so tests can
// partition exactly one worker (chaos index = worker index). transport
// selects the layer beneath: in-process workers or HTTP workers over real
// loopback sockets. The reference deployment sees the same graph.
func newReplicatedServer(t *testing.T, transport string, cfg Config) (*Server, *shard.Router, *chaos.Injector, *core.Deployment) {
	t.Helper()
	ds, m := fixture(t)
	if cfg.Opt.TMax == 0 {
		cfg.Opt = core.InferenceOptions{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K}
	}
	const workers = 4

	var tr shard.Transport
	switch transport {
	case "local":
		ws := make([]*shard.Worker, workers)
		for i := range ws {
			w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{}, i)
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		tr = shard.NewLocalTransport(ws)
	case "http":
		addrs := make([]string, workers)
		for i := range addrs {
			w, err := shard.NewWorker(m, ds.Graph.Clone(), shard.Config{}, i)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(shard.WorkerHandlerObs(w, obs.New(obs.Options{RingSize: 16})))
			t.Cleanup(srv.Close)
			addrs[i] = srv.URL
		}
		tr = shard.NewHTTPTransport(addrs, shard.HTTPTransportConfig{CallTimeout: 5 * time.Second})
	default:
		t.Fatalf("unknown transport %q", transport)
	}

	inj := chaos.New(tr, 11)
	rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(),
		shard.Config{Shards: workers, Retries: 2, RetryBackoff: time.Millisecond}, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	s := NewBackend(rt, cfg)
	t.Cleanup(s.Close)
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return s, rt, inj, dep
}

// TestFailoverUnderFire is the failover acceptance gate, run over both
// transports and meant for -race: a four-worker pool loses one worker
// mid-stream under Zipf-skewed inference traffic with concurrent graph
// deltas, and clients must see zero 5xx; after the partition heals, one
// probe re-admits the worker (replaying the deltas it missed) and every
// answer is bit-identical to an unsharded deployment that saw everything.
func TestFailoverUnderFire(t *testing.T) {
	for _, transport := range []string{"local", "http"} {
		t.Run(transport, func(t *testing.T) {
			s, rt, inj, dep := newReplicatedServer(t, transport,
				Config{})
			ds, m := fixture(t)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// Zipf-skewed targets over the test split, one stream per client.
			targets := ds.Split.Test
			var (
				wg       sync.WaitGroup
				stop     = make(chan struct{})
				requests atomic.Uint64
				fiveXX   atomic.Uint64
				lastBad  atomic.Value
			)
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + c)))
					zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(targets)-1))
					for {
						select {
						case <-stop:
							return
						default:
						}
						body, _ := json.Marshal(map[string][]int{
							"nodes": {targets[zipf.Uint64()]}})
						resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
						if err != nil {
							// A transport-level client error is not an HTTP
							// status; surface it like a 5xx.
							fiveXX.Add(1)
							lastBad.Store(err.Error())
							continue
						}
						resp.Body.Close()
						requests.Add(1)
						if resp.StatusCode >= 500 {
							fiveXX.Add(1)
							lastBad.Store(fmt.Sprintf("status %d", resp.StatusCode))
						}
					}
				}(c)
			}

			// waitFor polls cond (bounded) instead of sleeping a guessed
			// interval: a slow box gets the time it needs, a fast one does not
			// idle.
			waitFor := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(30 * time.Second); !cond(); {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
					time.Sleep(time.Millisecond)
				}
			}
			requestsPast := func(n uint64) func() bool {
				mark := requests.Load() + n
				return func() bool { return requests.Load() >= mark }
			}

			// Mid-stream: partition worker 1, then keep committing deltas it
			// will miss. The unsharded reference sees the
			// same deltas, so the final equivalence check is exact.
			waitFor("the storm to start", requestsPast(50))
			inj.Partition(1)
			// Let the storm discover the partition through Infer (the
			// transparent failover under test) before the deltas commit.
			waitFor("an Infer to fail over", func() bool { return rt.Describe().Failovers > 0 })
			f := ds.Graph.F()
			var deltas []graph.Delta
			for w := 0; w < 4; w++ {
				row := make([]float64, f)
				row[w%f] = 1
				deltas = append(deltas, graph.Delta{
					Features: mat.FromRows([][]float64{row}),
					Labels:   []int{0},
					Src:      []int{w % ds.Graph.N()},
					Dst:      []int{ds.Graph.N() + w},
				})
			}
			for di, d := range deltas {
				if _, err := s.ApplyDelta(d.Clone()); err != nil {
					t.Errorf("delta %d under fire: %v", di, err)
				}
				if _, err := dep.ApplyDelta(d.Clone()); err != nil {
					t.Errorf("reference delta %d: %v", di, err)
				}
				waitFor("traffic between deltas", requestsPast(20))
			}
			waitFor("traffic after the last delta", requestsPast(50))
			close(stop)
			wg.Wait()

			if n := fiveXX.Load(); n != 0 {
				t.Fatalf("%d/%d requests got 5xx during failover (last: %v)",
					n, requests.Load(), lastBad.Load())
			}
			if requests.Load() == 0 {
				t.Fatal("no traffic reached the daemon — the storm tested nothing")
			}
			if inj.Injected() == 0 {
				t.Fatal("chaos injected no faults — the partition never bit")
			}
			if rt.Describe().Failovers == 0 {
				t.Fatal("no failovers recorded despite a partitioned worker")
			}

			// Clean rejoin: heal, one probe replays the missed deltas, every
			// worker reports up at the router's version.
			inj.Heal()
			rt.Probe(context.Background())
			for _, st := range rt.Describe().Shards {
				if st.State != "up" || st.Version != rt.Version() {
					t.Fatalf("worker %d after rejoin: %+v (router at %d)", st.Shard, st, rt.Version())
				}
			}

			// Bit-identity against the unsharded deployment, original and
			// delta-appended nodes alike.
			all := append([]int(nil), targets...)
			for v := ds.Graph.N(); v < dep.Graph.N(); v++ {
				all = append(all, v)
			}
			want, err := dep.Infer(all, core.InferenceOptions{
				Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K})
			if err != nil {
				t.Fatal(err)
			}
			preds, depths, err := s.Classify(all)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Pred {
				if preds[i] != want.Pred[i] || depths[i] != want.Depths[i] {
					t.Fatalf("target %d: pooled (%d,%d) != reference (%d,%d)",
						all[i], preds[i], depths[i], want.Pred[i], want.Depths[i])
				}
			}
		})
	}
}

// TestHealthzReportsReplicas: /healthz and /stats carry one row per worker,
// and /metrics exposes nai_shard_up, the failover counters and each
// worker's version lag — k for every worker after k deltas, since a delta
// reaches no worker; 0 once a probe replays them to a reachable one, and to
// the partitioned one once healed. One worker down leaves the daemon healthy.
func TestHealthzReportsReplicas(t *testing.T) {
	s, rt, inj, _ := newReplicatedServer(t, "local",
		Config{})
	ds, _ := fixture(t)
	inj.Partition(1)
	if _, _, err := s.Classify(ds.Split.Test); err != nil {
		t.Fatalf("classify with one worker partitioned: %v", err)
	}
	rt.Probe(context.Background())

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
	if resp.StatusCode != http.StatusOK || !hr.OK {
		t.Fatalf("healthz with one of four workers down: %d %+v, want 200 ok", resp.StatusCode, hr)
	}
	if len(hr.Shards) != 4 {
		t.Fatalf("healthz rows %+v, want one per worker", hr.Shards)
	}
	if st := hr.Shards[1]; st.Up || st.State == "up" || st.Err == "" {
		t.Fatalf("partitioned worker row %+v, want down with an error", st)
	}
	if st := hr.Shards[0]; !st.Up || st.State != "up" {
		t.Fatalf("healthy worker row %+v, want up", st)
	}

	if st := s.Stats(); len(st.Shards) != 4 {
		t.Fatalf("stats rows %+v, want one per worker", st.Shards)
	}

	requireMetrics := func(wants ...string) {
		t.Helper()
		body := metricsBody(t, ts.URL)
		for _, want := range wants {
			if !bytes.Contains([]byte(body), []byte(want)) {
				t.Fatalf("metrics missing %q:\n%s", want, body)
			}
		}
	}
	requireMetrics(
		`nai_shard_up{shard="0"} 1`,
		`nai_shard_up{shard="1"} 0`,
		`nai_shard_up{shard="2"} 1`,
		`nai_shard_version_lag{shard="1"} 0`,
		"nai_shard_failovers_total")

	// Three deltas commit at the router alone.
	f := ds.Graph.F()
	for k := 0; k < 3; k++ {
		d := graph.Delta{Features: mat.New(1, f), Labels: []int{0},
			Src: []int{k}, Dst: []int{ds.Graph.N() + k}}
		if _, err := s.ApplyDelta(d); err != nil {
			t.Fatalf("delta %d with one worker partitioned: %v", k, err)
		}
	}
	requireMetrics(
		`nai_shard_version_lag{shard="0"} 3`,
		`nai_shard_version_lag{shard="1"} 3`,
		`nai_shard_version_lag{shard="2"} 3`,
		`nai_shard_version_lag{shard="3"} 3`)
	// The probe replays them to every reachable worker.
	rt.Probe(context.Background())
	requireMetrics(
		`nai_shard_version_lag{shard="0"} 0`,
		`nai_shard_version_lag{shard="1"} 3`,
		`nai_shard_version_lag{shard="2"} 0`,
		`nai_shard_version_lag{shard="3"} 0`)
	inj.Heal()
	rt.Probe(context.Background())
	requireMetrics(
		`nai_shard_up{shard="1"} 1`,
		`nai_shard_version_lag{shard="1"} 0`)
}

// metricsBody scrapes /metrics and returns the text exposition.
func metricsBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
