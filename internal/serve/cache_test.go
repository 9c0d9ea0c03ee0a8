package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/scalable"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// cacheModeOpts enumerates the serving operating points of the equivalence
// suite: one per NAP mode, all at full depth.
func cacheModeOpts(m *core.Model) map[string]core.InferenceOptions {
	return map[string]core.InferenceOptions{
		"fixed":    {Mode: core.ModeFixed, TMin: 1, TMax: m.K},
		"distance": {Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K},
		"gate":     {Mode: core.ModeGate, TMin: 1, TMax: m.K},
	}
}

// newCacheBackend builds a cached serving backend over its own clone of the
// fixture graph: a single deployment for P=1, a router for P>1.
func newCacheBackend(t *testing.T, m *core.Model, g *graph.Graph, p int) Backend {
	t.Helper()
	if p <= 1 {
		dep, err := core.NewDeployment(m, g.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	rt, err := shard.NewRouter(m, g.Clone(), shard.Config{Shards: p})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// cacheFixtureDelta builds stage i of the multi-stage delta sequence: odd
// stages append edges among existing nodes, even stages append a node with
// incident edges (both delta shapes the daemon accepts).
func cacheFixtureDelta(i, n0, f int) graph.Delta {
	if i%2 == 1 {
		return graph.Delta{
			Src: []int{(3*i + 1) % n0, (5*i + 2) % n0},
			Dst: []int{(7*i + 11) % n0, (11*i + 23) % n0},
		}
	}
	row := make([]float64, f)
	row[i%f] = 1
	id := n0 + i/2 - 1 // stage 2 appends node n0, stage 4 node n0+1, …
	return graph.Delta{
		Features: mat.FromRows([][]float64{row}),
		Labels:   []int{0},
		Src:      []int{id, id},
		Dst:      []int{(13*i + 5) % n0, (17*i + 7) % n0},
	}
}

// TestCachedServingEquivalence is the acceptance suite of the result cache:
// for every NAP mode and P ∈ {1,2,4} shards, cached serving — including
// repeat rounds answered from the cache and partial-hit multi-target
// requests — must stay bit-identical to a from-scratch uncached reference
// deployment across multi-stage deltas.
func TestCachedServingEquivalence(t *testing.T) {
	ds, m := fixture(t)
	for mode, opt := range cacheModeOpts(m) {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P%d", mode, p), func(t *testing.T) {
				// Reference: uncached deployment receiving the same deltas.
				ref, err := core.NewDeployment(m, ds.Graph.Clone())
				if err != nil {
					t.Fatal(err)
				}
				srv := NewBackend(newCacheBackend(t, m, ds.Graph, p),
					Config{Opt: opt, CacheSize: 64})
				t.Cleanup(srv.Close)

				hot := append([]int(nil), ds.Split.Test[:8]...)
				check := func(stage string) {
					t.Helper()
					want, err := ref.Infer(hot, opt)
					if err != nil {
						t.Fatal(err)
					}
					// Two rounds: the first fills the cache (or re-fills it
					// after invalidation), the second must be served from it
					// — both bit-identical to the reference.
					for round := 0; round < 2; round++ {
						gotP, gotD, err := srv.Classify(hot)
						if err != nil {
							t.Fatal(err)
						}
						for i, v := range hot {
							if gotP[i] != want.Pred[i] || gotD[i] != want.Depths[i] {
								t.Fatalf("%s round %d target %d: cached (%d,%d) != reference (%d,%d)",
									stage, round, v, gotP[i], gotD[i], want.Pred[i], want.Depths[i])
							}
						}
					}
					// Partial hit: one cached target plus one likely-cold one.
					mixed := []int{hot[0], ds.Split.Test[9]}
					gotP, gotD, err := srv.Classify(mixed)
					if err != nil {
						t.Fatal(err)
					}
					wantMixed, err := ref.Infer(mixed, opt)
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range mixed {
						if gotP[i] != wantMixed.Pred[i] || gotD[i] != wantMixed.Depths[i] {
							t.Fatalf("%s mixed target %d: cached (%d,%d) != reference (%d,%d)",
								stage, v, gotP[i], gotD[i], wantMixed.Pred[i], wantMixed.Depths[i])
						}
					}
				}

				check("pre-delta")
				st := srv.Stats()
				if st.Cache == nil || st.Cache.Hits == 0 {
					t.Fatalf("no cache hits recorded pre-delta: %+v", st.Cache)
				}

				// Multi-stage deltas, including an appended node whose id
				// becomes servable (and cacheable) mid-run.
				n0, f := ds.Graph.N(), ds.Graph.F()
				for stage := 1; stage <= 4; stage++ {
					d := cacheFixtureDelta(stage, n0, f)
					if _, err := srv.ApplyDelta(d.Clone()); err != nil {
						t.Fatal(err)
					}
					if _, err := ref.ApplyDelta(d.Clone()); err != nil {
						t.Fatal(err)
					}
					if stage%2 == 0 {
						hot = append(hot, n0+stage/2-1) // serve the newcomer too
					}
					check(fmt.Sprintf("delta-%d", stage))
				}

				st = srv.Stats()
				if st.Cache.Invalidations == 0 {
					t.Fatalf("deltas evicted nothing: %+v", st.Cache)
				}
				if st.GraphVersion != 5 { // 1 (build) + 4 effective deltas
					t.Fatalf("graph version %d, want 5", st.GraphVersion)
				}
			})
		}
	}
}

// TestCachedDeltaRace is the satellite race test: 8 concurrent clients
// replay a Zipf-skewed hot-target stream while a writer streams POST /edges
// deltas; after each delta the writer verifies — with the graph stable but
// the clients still hammering — that cached serving matches an uncached
// reference deployment bit-for-bit. Run with -race.
func TestCachedDeltaRace(t *testing.T) {
	ds, m := fixture(t)
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K}
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			ref, err := core.NewDeployment(m, ds.Graph.Clone())
			if err != nil {
				t.Fatal(err)
			}
			srv := NewBackend(newCacheBackend(t, m, ds.Graph, p),
				Config{Opt: opt, CacheSize: 128})
			t.Cleanup(srv.Close)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			// The shared Zipf workload generator: hottest node first.
			hotStream := bench.ZipfTargets(11, 1.2, ds.Split.Test, 1<<12)
			hotSet := ds.Split.Test[:12]

			var wg sync.WaitGroup
			stop := make(chan struct{})
			errs := make(chan error, 8)
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; ; i += 8 {
						select {
						case <-stop:
							return
						default:
						}
						if _, _, err := srv.Classify([]int{hotStream[i%len(hotStream)]}); err != nil {
							errs <- err
							return
						}
					}
				}(c)
			}

			// The writer: stream edge deltas over HTTP, and after each one —
			// graph now stable until the next delta, clients still running —
			// require bit-for-bit agreement with the uncached reference.
			rng := rand.New(rand.NewSource(5))
			n0 := ds.Graph.N()
			for stage := 0; stage < 5; stage++ {
				edges := [][2]int{
					{rng.Intn(n0), rng.Intn(n0)},
					{rng.Intn(n0), rng.Intn(n0)},
				}
				var d graph.Delta
				for _, e := range edges {
					if e[0] == e[1] {
						continue // self-loops are rejected no-ops either way
					}
					d.Src = append(d.Src, e[0])
					d.Dst = append(d.Dst, e[1])
				}
				if len(d.Src) == 0 {
					continue
				}
				resp := postJSON(t, ts, "/edges", EdgesRequest{Edges: edges})
				resp.Body.Close()
				if _, err := ref.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}

				want, err := ref.Infer(hotSet, opt)
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 2; round++ { // miss round, then hit round
					gotP, gotD, err := srv.Classify(hotSet)
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range hotSet {
						if gotP[i] != want.Pred[i] || gotD[i] != want.Depths[i] {
							t.Fatalf("stage %d round %d target %d: cached (%d,%d) != reference (%d,%d)",
								stage, round, v, gotP[i], gotD[i], want.Pred[i], want.Depths[i])
						}
					}
				}
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestRemoteDeltaNAPCoupling pins why the invalidation policy is
// mode-aware: on a long path graph, adding one edge far outside a target's
// radius-TMax supporting ball still changes the target's NAP_d exit depth,
// because the stationary state X(∞) = (d_i+1)^γ/(2m+n)·Σ_j (d_j+1)^{1−γ}x_j
// couples every node's decision threshold to the global edge mass. Ball
// eviction alone would therefore serve a stale answer in distance/gate
// modes; the flush policy keeps cached serving bit-identical.
func TestRemoteDeltaNAPCoupling(t *testing.T) {
	_, m := fixture(t)
	const n = 60
	src := make([]int, n-1)
	dst := make([]int, n-1)
	for i := 0; i < n-1; i++ {
		src[i], dst[i] = i, i+1
	}
	rng := rand.New(rand.NewSource(9))
	g, err := graph.New(
		sparse.FromEdges(n, src, dst, true),
		mat.Randn(n, m.FeatureDim, 1, rng),
		make([]int, n), m.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	delta := graph.Delta{Src: []int{40}, Dst: []int{42}} // chord far from node 0
	const target, tmax = 0, 2

	norm1 := func(dep *core.Deployment) float64 {
		x1 := scalable.Propagate(dep.Adj, dep.Graph.Features, 1)[1]
		xinf := dep.Stationary().Rows([]int{target})
		var s float64
		for j, v := range x1.Row(target) {
			diff := v - xinf.Row(0)[j]
			s += diff * diff
		}
		return math.Sqrt(s)
	}
	pre, err := core.NewDeployment(m, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	post, err := core.NewDeployment(m, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := post.ApplyDelta(delta.Clone()); err != nil {
		t.Fatal(err)
	}
	dPre, dPost := norm1(pre), norm1(post)
	if dPre == dPost {
		t.Fatalf("remote delta left ‖X⁽¹⁾−X(∞)‖ of node %d unchanged (%v); the global coupling this test pins is gone", target, dPre)
	}
	// The delta is far outside the target's supporting ball …
	for _, v := range graph.Ball(post.Graph.Adj, []int{40, 42}, tmax) {
		if v == target {
			t.Fatalf("target %d inside the radius-%d dirty ball; fixture broken", target, tmax)
		}
	}
	// … yet with T_s between the two distances, the exit depth flips.
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: (dPre + dPost) / 2, TMin: 1, TMax: tmax}
	wantPre, err := pre.Infer([]int{target}, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantPost, err := post.Infer([]int{target}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if wantPre.Depths[0] == wantPost.Depths[0] {
		t.Fatalf("exit depth did not flip (%d == %d); widen the fixture", wantPre.Depths[0], wantPost.Depths[0])
	}

	// Cached serving across that delta must return the post-delta answer —
	// under ball-only eviction it would still hold the pre-delta entry.
	dep, err := core.NewDeployment(m, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(dep, Config{Opt: opt, CacheSize: 32})
	t.Cleanup(srv.Close)
	for round := 0; round < 2; round++ { // fill, then hit
		if _, depths, err := srv.Classify([]int{target}); err != nil || depths[0] != wantPre.Depths[0] {
			t.Fatalf("pre-delta round %d: depth %v err %v, want %d", round, depths, err, wantPre.Depths[0])
		}
	}
	if _, err := srv.ApplyDelta(delta.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, depths, err := srv.Classify([]int{target}); err != nil || depths[0] != wantPost.Depths[0] {
		t.Fatalf("post-delta: depth %v err %v, want %d (stale cached answer?)", depths, err, wantPost.Depths[0])
	}
}

// TestStatsCacheBlock covers the /stats cache schema: counters, the
// fully-cached request count, the graph version, JSON shape, and the
// absence of the block when caching is disabled.
func TestStatsCacheBlock(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: 16})
	if _, _, err := s.Classify([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Classify([]int{1, 2}); err != nil { // fully cached
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Cache == nil {
		t.Fatal("cache block missing on a cached server")
	}
	c := st.Cache
	if c.Hits != 2 || c.Misses != 2 || c.Entries != 2 || c.FullyCachedRequests != 1 {
		t.Fatalf("cache block %+v, want 2 hits / 2 misses / 2 entries / 1 fully-cached request", c)
	}
	if c.HitRate != 0.5 || c.Bytes <= 0 || c.Capacity < 16 {
		t.Fatalf("cache gauges off: %+v", c)
	}
	if st.Requests != 2 || st.InferCalls != 1 {
		t.Fatalf("request accounting %d/%d, want 2 requests over 1 infer call", st.Requests, st.InferCalls)
	}
	if st.GraphVersion != 1 {
		t.Fatalf("graph version %d, want 1 before deltas", st.GraphVersion)
	}

	// A delta (distance mode → flush) must surface as invalidations and a
	// version bump.
	if _, err := s.ApplyDelta(graph.Delta{Src: []int{1}, Dst: []int{100}}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Cache.Invalidations != 2 || st.GraphVersion != 2 {
		t.Fatalf("post-delta cache block %+v version %d, want 2 invalidations / version 2",
			st.Cache, st.GraphVersion)
	}

	// JSON shape over HTTP: the block decodes with its counters intact.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[Stats](t, resp)
	if got.Cache == nil || got.Cache.Invalidations != 2 || got.Cache.Hits != 2 {
		t.Fatalf("HTTP cache block %+v, want the tracked counters", got.Cache)
	}

	// Uncached server: no cache block, neither in the struct nor the JSON.
	plain, _ := newTestServer(t, Config{})
	if _, _, err := plain.Classify([]int{1}); err != nil {
		t.Fatal(err)
	}
	pst := plain.Stats()
	if pst.Cache != nil {
		t.Fatalf("uncached server grew a cache block: %+v", pst.Cache)
	}
	data, err := json.Marshal(pst)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"cache"`) {
		t.Fatalf("uncached /stats JSON contains a cache key: %s", data)
	}
}

// rejectingTransport permanently rejects every delta replayed to one
// worker, as a worker whose graph diverged from the router's does.
type rejectingTransport struct {
	shard.Transport
	reject int
}

func (r *rejectingTransport) ApplyDelta(ctx context.Context, p int, sd *shard.ShardDelta) error {
	if p == r.reject {
		return errors.New("worker rejected the delta")
	}
	return r.Transport.ApplyDelta(ctx, p, sd)
}

// TestCommittedDeltaWithError: a delta the router committed that one worker
// then rejects on replay. The delta itself succeeds — graph_version and
// deltas both advance — and the rejecting worker is routed around at the
// read that replays to it: it goes down and every answer equals the
// reference. No answer that predates the delta survives it: none at all
// under a NAP mode, none inside the radius-TMax dirty ball under ModeFixed —
// where the entries outside it stay hot.
func TestCommittedDeltaWithError(t *testing.T) {
	ds, m := fixture(t)
	for mode, opt := range map[string]core.InferenceOptions{
		"fixed":    {Mode: core.ModeFixed, TMin: 1, TMax: 1},
		"distance": {Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K},
	} {
		t.Run(mode, func(t *testing.T) {
			ref, err := core.NewDeployment(m, ds.Graph.Clone())
			if err != nil {
				t.Fatal(err)
			}
			cfg := shard.Config{Shards: 2}
			workers := make([]*shard.Worker, cfg.Shards)
			for p := range workers {
				if workers[p], err = shard.NewWorker(m, ds.Graph.Clone(), cfg, p); err != nil {
					t.Fatal(err)
				}
			}
			rt, err := shard.NewRouterTransport(m, ds.Graph.Clone(), cfg,
				&rejectingTransport{Transport: shard.NewLocalTransport(workers), reject: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rt.Close() })
			srv := NewBackend(rt, Config{Opt: opt, CacheSize: 64})
			t.Cleanup(srv.Close)

			// The delta touches the first test node; the first test node
			// outside its dirty ball is the entry that may stay.
			near := ds.Split.Test[0]
			delta := graph.Delta{Src: []int{near}, Dst: []int{ds.Split.Test[1]}}
			if _, err := ref.ApplyDelta(delta.Clone()); err != nil {
				t.Fatal(err)
			}
			inBall := map[int]bool{}
			for _, v := range graph.Ball(ref.Graph.Adj, []int{near, ds.Split.Test[1]}, opt.TMax) {
				inBall[v] = true
			}
			far := -1
			for _, v := range ds.Split.Test[2:] {
				if !inBall[v] {
					far = v
					break
				}
			}
			if far < 0 {
				t.Fatal("every test node is inside the dirty ball; fixture too dense")
			}
			hot := []int{near, far}
			for round := 0; round < 2; round++ { // fill, then hit
				if _, _, err := srv.Classify(hot); err != nil {
					t.Fatal(err)
				}
			}

			before := srv.Stats()
			if _, err := srv.ApplyDelta(delta.Clone()); err != nil {
				t.Fatalf("delta failed at the router: %v", err)
			}
			after := srv.Stats()
			if after.GraphVersion != before.GraphVersion+1 || after.Deltas != before.Deltas+1 {
				t.Fatalf("version %d → %d, deltas %d → %d: want both to follow the committed delta",
					before.GraphVersion, after.GraphVersion, before.Deltas, after.Deltas)
			}

			want, err := ref.Infer(hot, opt)
			if err != nil {
				t.Fatal(err)
			}
			gotP, gotD, err := srv.Classify(hot)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range hot {
				if gotP[i] != want.Pred[i] || gotD[i] != want.Depths[i] {
					t.Fatalf("target %d after the delta: served (%d,%d), reference (%d,%d)",
						v, gotP[i], gotD[i], want.Pred[i], want.Depths[i])
				}
			}
			// near was recomputed in both modes; far only where the whole
			// cache had to go.
			wantHits := int64(0)
			if opt.Mode == core.ModeFixed {
				wantHits = 1
			}
			final := srv.Stats().Cache
			if hits := final.Hits - after.Cache.Hits; hits != wantHits {
				t.Fatalf("%d of %v answered from entries that predate the delta, want %d (cache %+v → %+v)",
					hits, hot, wantHits, after.Cache, final)
			}

			// A second backend call: round-robin over the up workers has
			// tried the rejecting one by now, whichever answered first.
			want, err = ref.Infer(ds.Split.Test, opt)
			if err != nil {
				t.Fatal(err)
			}
			if gotP, gotD, err = srv.Classify(ds.Split.Test); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotP, want.Pred) || !slices.Equal(gotD, want.Depths) {
				t.Fatal("answers differ from the reference beside a rejecting worker")
			}
			sts := rt.Describe().Shards
			if !sts[0].Up || sts[1].Up || !strings.Contains(sts[1].Err, "rejected") {
				t.Fatalf("worker rows %+v, want 0 up and 1 down for rejecting the delta", sts)
			}
		})
	}
}
