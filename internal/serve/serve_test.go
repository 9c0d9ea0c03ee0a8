package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/shard"
	"repro/internal/synth"
)

// The fixture trains one tiny gate-free model and is shared across tests;
// every test builds its own Deployment (deltas mutate the graph in place).
var (
	fixOnce  sync.Once
	fixDS    *synth.Dataset
	fixModel *core.Model
)

func fixture(t testing.TB) (*synth.Dataset, *core.Model) {
	t.Helper()
	fixOnce.Do(func() {
		ds, err := synth.Generate(synth.Tiny(23))
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		opt := core.DefaultTrainOptions()
		opt.K = 3
		opt.Hidden = []int{16}
		opt.Base = nn.TrainConfig{Epochs: 40, LR: 0.02, WeightDecay: 1e-4, Patience: 10, Seed: 1}
		opt.DistillEpochs = 25
		opt.GateEpochs = 15
		opt.EnsembleR = 2
		m, err := core.Train(ds.Graph, ds.Split, opt)
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		fixDS, fixModel = ds, m
	})
	return fixDS, fixModel
}

func newTestServer(t testing.TB, cfg Config) (*Server, *core.Deployment) {
	t.Helper()
	ds, m := fixture(t)
	g := ds.Graph.Clone()
	dep, err := core.NewDeployment(m, g)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Opt.TMax == 0 {
		cfg.Opt = core.InferenceOptions{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K}
	}
	s := New(dep, cfg)
	t.Cleanup(s.Close)
	return s, dep
}

// TestCoalescedMatchesDirect: concurrent single-node requests must be
// answered bit-identically to one direct Infer over all of them, and each
// request must be exactly one backend call. Algorithm 1 evaluates each
// target on its own supporting ball, so at f64 and f32 — the tier this test
// serves — batch mates never change an answer. At int8 they can: the tier
// quantizes a batch's activations with one scale for the whole batch.
func TestCoalescedMatchesDirect(t *testing.T) {
	s, dep := newTestServer(t, Config{})
	ds, _ := fixture(t)
	targets := ds.Split.Test

	want, err := dep.Infer(targets, core.InferenceOptions{
		Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: fixModel.K})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(targets))
	for i, v := range targets {
		wg.Add(1)
		go func(i, v int) {
			defer wg.Done()
			preds, depths, err := s.Classify([]int{v})
			if err != nil {
				errs <- err
				return
			}
			if preds[0] != want.Pred[i] || depths[0] != want.Depths[i] {
				errs <- fmt.Errorf("target %d: got (%d,%d), want (%d,%d)",
					v, preds[0], depths[0], want.Pred[i], want.Depths[i])
			}
		}(i, v)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Requests != int64(len(targets)) || st.InferCalls != st.Requests || st.CoalesceRate != 1 {
		t.Fatalf("%d Infer calls for %d requests (coalesce_rate %v), want one call per request",
			st.InferCalls, st.Requests, st.CoalesceRate)
	}
}

// TestClassifyValidation rejects out-of-range ids before any backend call.
func TestClassifyValidation(t *testing.T) {
	s, dep := newTestServer(t, Config{})
	if _, _, err := s.Classify([]int{dep.Graph.N()}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, _, err := s.Classify([]int{-1}); err == nil {
		t.Fatal("negative id accepted")
	}
	if preds, depths, err := s.Classify(nil); err != nil || preds != nil || depths != nil {
		t.Fatal("empty request should be a cheap no-op")
	}
}

// TestDeltasUnderTraffic hammers Classify from many goroutines while other
// goroutines grow the graph, exercising the read/write lock under -race,
// then checks the grown graph serves the appended nodes.
func TestDeltasUnderTraffic(t *testing.T) {
	s, dep := newTestServer(t, Config{})
	n0 := dep.Graph.N()
	f := dep.Graph.F()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := s.Classify([]int{(c*7 + i) % n0}); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	for w := 0; w < 8; w++ {
		feats := make([][]float64, 1)
		feats[0] = make([]float64, f)
		feats[0][w%f] = 1
		nr := nodesReq(t, s, feats, []int{0}, [][2]int{{0, w % n0}})
		if nr.Count != 1 {
			t.Fatalf("delta %d: appended %d nodes", w, nr.Count)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Appended nodes are now inferable through the same path.
	preds, depths, err := s.Classify([]int{n0, n0 + 7})
	if err != nil || len(preds) != 2 || len(depths) != 2 {
		t.Fatalf("classify appended nodes: %v", err)
	}
	st := s.Stats()
	if st.Deltas != 8 || st.NodesAdded != 8 || st.Nodes != n0+8 {
		t.Fatalf("delta accounting off: %+v", st)
	}
}

// TestCoalescerImmediateFlush: no request waits for or joins another —
// under eight concurrent callers every request is its own Infer call
// (coalesce_rate 1).
func TestCoalescerImmediateFlush(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const callers, each = 8, 25
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := s.Classify([]int{c*each + i}); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Requests != callers*each || st.InferCalls != st.Requests || st.CoalesceRate != 1 {
		t.Fatalf("%d Infer calls for %d requests (coalesce_rate %v), want one call per request",
			st.InferCalls, st.Requests, st.CoalesceRate)
	}
}

// --- HTTP layer ---------------------------------------------------------

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func nodesReq(t *testing.T, s *Server, features [][]float64, labels []int, edges [][2]int) NodesResponse {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postJSON(t, ts, "/nodes", NodesRequest{Features: features, Labels: labels, Edges: edges})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /nodes: %d", resp.StatusCode)
	}
	return decodeBody[NodesResponse](t, resp)
}

// TestHTTPMaxBody: payloads beyond Config.MaxBody must be rejected with a
// 413 — not read to completion, not a hang, not a 500 — and the server must
// keep serving normal requests afterwards.
func TestHTTPMaxBody(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBody: 512})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := InferRequest{Nodes: make([]int, 4096)} // ~8KiB of JSON
	resp := postJSON(t, ts, "/infer", big)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /infer: status %d, want 413", resp.StatusCode)
	}
	huge := NodesRequest{Features: [][]float64{make([]float64, 8192)}, Labels: []int{0}}
	resp = postJSON(t, ts, "/nodes", huge)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /nodes: status %d, want 413", resp.StatusCode)
	}

	resp = postJSON(t, ts, "/infer", InferRequest{Nodes: []int{0, 1}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal request after oversized one: status %d", resp.StatusCode)
	}
}

// TestShardedBackendServing runs the daemon against a shard.Router backend
// and requires the answers (and the delta path) to match a single-
// deployment server over the same graph — the Backend seam must be
// invisible to clients.
func TestShardedBackendServing(t *testing.T) {
	ds, m := fixture(t)
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K}

	single, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.NewRouter(m, ds.Graph.Clone(), shard.Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	sSingle := New(single, Config{Opt: opt})
	t.Cleanup(sSingle.Close)
	sSharded := NewBackend(sharded, Config{Opt: opt})
	t.Cleanup(sSharded.Close)

	check := func(targets []int) {
		t.Helper()
		wantP, wantD, err := sSingle.Classify(targets)
		if err != nil {
			t.Fatal(err)
		}
		gotP, gotD, err := sSharded.Classify(targets)
		if err != nil {
			t.Fatal(err)
		}
		for i := range targets {
			if gotP[i] != wantP[i] || gotD[i] != wantD[i] {
				t.Fatalf("target %d: sharded (%d,%d) != single (%d,%d)",
					targets[i], gotP[i], gotD[i], wantP[i], wantD[i])
			}
		}
	}
	check(ds.Split.Test[:8])

	// Grow both graphs identically through the server API and re-compare,
	// including the appended node.
	f := ds.Graph.F()
	row := make([]float64, f)
	row[0] = 1
	d := graph.Delta{Features: mat.FromRows([][]float64{row}), Labels: []int{0},
		Src: []int{ds.Graph.N()}, Dst: []int{3}}
	if _, err := sSingle.ApplyDelta(d.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := sSharded.ApplyDelta(d.Clone()); err != nil {
		t.Fatal(err)
	}
	check(append([]int{ds.Graph.N()}, ds.Split.Test[:4]...))

	// The HTTP surface reports the sharded graph's true size.
	ts := httptest.NewServer(sSharded.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[HealthResponse](t, resp)
	if h.Nodes != ds.Graph.N()+1 {
		t.Fatalf("sharded /healthz nodes %d, want %d", h.Nodes, ds.Graph.N()+1)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s, dep := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	n0 := dep.Graph.N()

	t.Run("healthz", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		h := decodeBody[HealthResponse](t, resp)
		if !h.OK || h.Nodes != n0 {
			t.Fatalf("bad health %+v", h)
		}
	})

	t.Run("infer", func(t *testing.T) {
		resp := postJSON(t, ts, "/infer", InferRequest{Nodes: []int{0, 1, 2}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		out := decodeBody[InferResponse](t, resp)
		if len(out.Preds) != 3 || len(out.Depths) != 3 {
			t.Fatalf("bad response %+v", out)
		}
	})

	t.Run("nodes-then-edges-then-infer", func(t *testing.T) {
		f := dep.Graph.F()
		row := make([]float64, f)
		resp := postJSON(t, ts, "/nodes", NodesRequest{Features: [][]float64{row}, Labels: []int{0}})
		nr := decodeBody[NodesResponse](t, resp)
		if nr.FirstID != n0 || nr.Count != 1 {
			t.Fatalf("bad nodes response %+v", nr)
		}
		resp = postJSON(t, ts, "/edges", EdgesRequest{Edges: [][2]int{{nr.FirstID, 0}}})
		er := decodeBody[EdgesResponse](t, resp)
		if er.Dirty != 2 {
			t.Fatalf("edge dirtied %d rows, want 2", er.Dirty)
		}
		resp = postJSON(t, ts, "/infer", InferRequest{Nodes: []int{nr.FirstID}})
		out := decodeBody[InferResponse](t, resp)
		if len(out.Preds) != 1 {
			t.Fatalf("appended node not served: %+v", out)
		}
	})

	t.Run("stats", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		st := decodeBody[Stats](t, resp)
		// ScratchBytes is deliberately not asserted non-zero: it reads a
		// sync.Pool, which drops items at will under the race detector.
		if st.Requests == 0 || st.InferCalls == 0 {
			t.Fatalf("stats not populated: %+v", st)
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, c := range []struct {
			path string
			body string
			want int
		}{
			{"/infer", `{"nodes":[]}`, http.StatusBadRequest},
			{"/infer", `{"nodes":[999999]}`, http.StatusBadRequest},
			{"/infer", `{"nodes":[0],"bogus":1}`, http.StatusBadRequest},
			{"/infer", `not json`, http.StatusBadRequest},
			{"/nodes", `{"features":[]}`, http.StatusBadRequest},
			{"/nodes", `{"features":[[1],[1,2]],"labels":[0,0]}`, http.StatusBadRequest},
			{"/edges", `{"edges":[]}`, http.StatusBadRequest},
			{"/edges", `{"edges":[[0,999999]]}`, http.StatusBadRequest},
		} {
			resp, err := ts.Client().Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("POST %s %q: status %d, want %d", c.path, c.body, resp.StatusCode, c.want)
			}
		}
		for _, path := range []string{"/infer", "/nodes", "/edges"} {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
			}
		}
	})
}
