package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/qos"
)

// flakyBackend wraps a real backend to inject the failure modes the
// overload tests need: a forced Infer error (the 500 path), a forced
// ApplyDelta error (the delta 500 path), an Infer that outlives its caller
// (it blocks until its context is done and returns the context's error, as a
// backend that honors its deadline does, so a deadline always expires
// mid-call) and an Infer gate (a call announces itself on it, then holds its
// admission budget until the test sends back).
type flakyBackend struct {
	Backend
	inferErr error
	deltaErr error
	outlive  bool
	gate     chan struct{}
}

func (f *flakyBackend) InferContext(ctx context.Context, targets []int, opt core.InferenceOptions) (*core.Result, error) {
	if f.gate != nil {
		f.gate <- struct{}{}
		<-f.gate
	}
	if f.outlive {
		// The server's copy of the deadline has its own timer, which may not
		// have fired yet: the call's own error is what says it ran out.
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if f.inferErr != nil {
		return nil, f.inferErr
	}
	return f.Backend.InferContext(ctx, targets, opt)
}

func (f *flakyBackend) ApplyDelta(d graph.Delta) (*graph.DeltaResult, error) {
	if f.deltaErr != nil {
		return nil, f.deltaErr
	}
	return f.Backend.ApplyDelta(d)
}

// newWrappedServer is newTestServer with a backend-wrapping hook.
func newWrappedServer(t *testing.T, cfg Config, wrap func(Backend) Backend) *Server {
	t.Helper()
	ds, m := fixture(t)
	dep, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Opt.TMax == 0 {
		cfg.Opt = core.InferenceOptions{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K}
	}
	var b Backend = dep
	if wrap != nil {
		b = wrap(b)
	}
	s := NewBackend(b, cfg)
	t.Cleanup(s.Close)
	return s
}

func mustQuotas(t *testing.T, spec string) *qos.Quotas {
	t.Helper()
	q, err := qos.ParseQuotas(spec)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// post issues one POST with optional headers and returns the response.
func post(t *testing.T, ts *httptest.Server, path, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPStatusCodes pins the wire-level error taxonomy: each failure mode
// must map to its own status instead of the blanket 400 the daemon used to
// return — validation 400, oversized 413, quota 429 (+Retry-After), backend
// failure 500, shutdown 503, deadline 504.
func TestHTTPStatusCodes(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		wrap func(Backend) Backend
		pre  func(t *testing.T, s *Server, ts *httptest.Server)
		path string
		body string
		hdr  map[string]string
		want int
		// retry requires a Retry-After header on the response.
		retry bool
	}{
		{
			name: "validation is 400",
			path: "/infer", body: `{"nodes":[999999]}`,
			want: http.StatusBadRequest,
		},
		{
			name: "delta validation is 400",
			path: "/edges", body: `{"edges":[[0,999999]]}`,
			want: http.StatusBadRequest,
		},
		{
			name: "bad deadline header is 400",
			path: "/infer", body: `{"nodes":[0]}`,
			hdr:  map[string]string{"X-Deadline-Ms": "soon"},
			want: http.StatusBadRequest,
		},
		{
			name: "oversized body is 413",
			cfg:  Config{MaxBody: 64},
			path: "/infer", body: `{"nodes":[` + strings.Repeat("0,", 100) + `0]}`,
			want: http.StatusRequestEntityTooLarge,
		},
		{
			name: "exhausted tenant quota is 429",
			cfg:  Config{},
			pre: func(t *testing.T, s *Server, ts *httptest.Server) {
				// One request burns the single-token burst; rate 0.001/s
				// leaves the bucket empty for the test's lifetime.
				s.cfg.Quotas = mustQuotas(t, "*=0.001:1")
				resp := post(t, ts, "/infer", `{"nodes":[0]}`, nil)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("quota warm-up: status %d", resp.StatusCode)
				}
			},
			path: "/infer", body: `{"nodes":[1]}`,
			want: http.StatusTooManyRequests, retry: true,
		},
		{
			name: "backend failure is 500",
			cfg:  Config{},
			wrap: func(b Backend) Backend {
				return &flakyBackend{Backend: b, inferErr: fmt.Errorf("propagation kernel wedged")}
			},
			path: "/infer", body: `{"nodes":[0]}`,
			want: http.StatusInternalServerError,
		},
		{
			name: "delta backend failure is 500",
			wrap: func(b Backend) Backend {
				return &flakyBackend{Backend: b, deltaErr: fmt.Errorf("refresh failed")}
			},
			path: "/edges", body: `{"edges":[[0,1]]}`,
			want: http.StatusInternalServerError,
		},
		{
			name: "post-shutdown submit is 503",
			cfg:  Config{},
			pre:  func(t *testing.T, s *Server, ts *httptest.Server) { s.Close() },
			path: "/infer", body: `{"nodes":[0]}`,
			want: http.StatusServiceUnavailable,
		},
		{
			name: "expired deadline is 504",
			cfg:  Config{},
			wrap: func(b Backend) Backend {
				// Infer outlives the caller's 50ms deadline on any host: the
				// call starts before the deadline and ends after it.
				return &flakyBackend{Backend: b, outlive: true}
			},
			path: "/infer", body: `{"nodes":[0]}`,
			hdr:  map[string]string{"X-Deadline-Ms": "50"},
			want: http.StatusGatewayTimeout,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newWrappedServer(t, c.cfg, c.wrap)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if c.pre != nil {
				c.pre(t, s, ts)
			}
			resp := post(t, ts, c.path, c.body, c.hdr)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, c.want, body)
			}
			if c.retry && resp.Header.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After header")
			}
		})
	}
}

// TestStatusMapping pins httpStatus for the errors that never cross the
// HTTP test harness cleanly (a client that hung up cannot read its 499).
func TestStatusMapping(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{ErrOverloaded, http.StatusTooManyRequests},
		{ErrQuota, http.StatusTooManyRequests},
		{ErrShed, http.StatusTooManyRequests},
		{&retryableError{err: ErrOverloaded, retry: time.Second}, http.StatusTooManyRequests},
		{ErrShuttingDown, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, StatusClientClosedRequest},
		{badRequestf("node 9 outside range"), http.StatusBadRequest},
		{fmt.Errorf("disk on fire"), http.StatusInternalServerError},
	} {
		if got := httpStatus(c.err); got != c.want {
			t.Errorf("httpStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
	if r := retryAfter(&retryableError{err: ErrQuota, retry: 3 * time.Second}); r != 3*time.Second {
		t.Errorf("retryAfter = %v, want 3s", r)
	}
}

// gatedServer is a server whose backend calls each stop at gate: a caller
// announces itself there once admitted, and its call proceeds when the test
// sends back.
func gatedServer(t *testing.T, cfg Config) (*Server, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	s := newWrappedServer(t, cfg, func(b Backend) Backend {
		return &flakyBackend{Backend: b, gate: gate}
	})
	return s, gate
}

// TestAdmissionFastReject: with the budget full, a new request must be
// rejected immediately with ErrOverloaded — microseconds, not a goroutine
// queued behind the call holding the budget — and the rejection must show
// up in /stats (rejected counter, pending_targets gauge).
func TestAdmissionFastReject(t *testing.T) {
	s, gate := gatedServer(t, Config{MaxPending: 2})

	done := make(chan error, 1)
	go func() {
		// Fills the 2-target budget and holds it at the gate.
		_, _, err := s.Classify([]int{0, 1})
		done <- err
	}()
	<-gate

	start := time.Now()
	_, _, err := s.Classify([]int{2})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full-budget Classify: err %v, want ErrOverloaded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("reject took %v, want microseconds", elapsed)
	}
	if st := s.Stats(); st.Rejected != 1 || st.PendingTargets != 2 || st.MaxPending != 2 {
		t.Fatalf("stats after reject: %+v", st)
	}

	// The held call completes with a real answer, and the budget returns
	// to empty.
	gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("budget-filling request failed: %v", err)
	}
	if got := s.budget.Pending(); got != 0 {
		t.Fatalf("budget not drained after the call: %d", got)
	}
}

// TestPermanentRejectsAre400: a request that can never be admitted — more
// targets than the whole admission budget, or than its tenant's quota
// burst can ever refill — must fail as a client error (400), not a
// retryable 429 whose Retry-After a well-behaved client would obey
// forever.
func TestPermanentRejectsAre400(t *testing.T) {
	t.Run("over admission budget", func(t *testing.T) {
		s, _ := newTestServer(t, Config{MaxPending: 2})
		_, _, err := s.Classify([]int{0, 1, 2})
		var badReq *badRequestError
		if !errors.As(err, &badReq) {
			t.Fatalf("3 targets against budget 2: err %v, want bad request", err)
		}
		if got := httpStatus(err); got != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", got)
		}
		// Exactly at the bound the request is admissible.
		if _, _, err := s.Classify([]int{0, 1}); err != nil {
			t.Fatalf("budget-sized request: %v", err)
		}
	})
	t.Run("over quota burst", func(t *testing.T) {
		s, _ := newTestServer(t, Config{
			Quotas: mustQuotas(t, "*=100:2")})
		_, _, err := s.Classify([]int{0, 1, 2})
		var badReq *badRequestError
		if !errors.As(err, &badReq) {
			t.Fatalf("3 targets against burst 2: err %v, want bad request", err)
		}
		// A burst-sized request drains the bucket instead: the next one is
		// the retryable 429.
		if _, _, err := s.Classify([]int{0, 1}); err != nil {
			t.Fatalf("burst-sized request: %v", err)
		}
		if _, _, err := s.Classify([]int{0}); !errors.Is(err, ErrQuota) {
			t.Fatalf("drained bucket: err %v, want ErrQuota", err)
		}
	})
}

// TestQuotaChargesPerTarget: quotas meter inference work, not calls — a
// 4-target request must cost four tokens, so batching cannot smuggle work
// past the rate limit.
func TestQuotaChargesPerTarget(t *testing.T) {
	s, _ := newTestServer(t, Config{
		Quotas: mustQuotas(t, "*=0.001:4")})
	if _, _, err := s.Classify([]int{0, 1, 2, 3}); err != nil {
		t.Fatalf("burst-sized batch refused: %v", err)
	}
	if _, _, err := s.Classify([]int{4}); !errors.Is(err, ErrQuota) {
		t.Fatalf("after a 4-target request the 4-token burst must be empty: err %v, want ErrQuota", err)
	}
}

// TestExpiredCallerDropped: a caller whose context is already dead gets
// its context error without a backend call, and its targets never occupy
// the admission budget past its own return — a live caller's call holds
// only its own.
func TestExpiredCallerDropped(t *testing.T) {
	s, gate := gatedServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead on arrival: admitted, then dropped before the call
	if _, _, err := s.ClassifyContext(ctx, []int{0}, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: err %v, want context.Canceled", err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Classify([]int{1})
		done <- err
	}()
	<-gate
	if got := s.budget.Pending(); got != 1 {
		t.Fatalf("budget holds %d targets during the live call, want its 1", got)
	}
	gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("live caller: %v", err)
	}
	st := s.Stats()
	if st.Targets != 1 || st.Requests != 1 {
		t.Fatalf("dropped caller reached the backend: %+v", st)
	}
	if st.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", st.DeadlineExceeded)
	}
	if got := s.budget.Pending(); got != 0 {
		t.Fatalf("dropped caller leaked budget: %d", got)
	}
}

// TestShutdownDrain: a call in flight when Close runs completes with a real
// answer, and every later request is refused with ErrShuttingDown before it
// reaches the backend.
func TestShutdownDrain(t *testing.T) {
	s, gate := gatedServer(t, Config{})

	type answer struct {
		preds []int
		err   error
	}
	got := make(chan answer, 1)
	go func() {
		preds, _, err := s.Classify([]int{3})
		got <- answer{preds, err}
	}()
	<-gate

	s.Close()
	gate <- struct{}{}
	if a := <-got; a.err != nil || len(a.preds) != 1 {
		t.Fatalf("in-flight caller after Close: %v %v", a.preds, a.err)
	}

	// A request reaching the gated backend now would block forever on the
	// gate; the refusal must come first.
	if _, _, err := s.Classify([]int{4}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown Classify: err %v, want ErrShuttingDown", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := post(t, ts, "/infer", `{"nodes":[0]}`, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown HTTP status %d, want 503", resp.StatusCode)
	}
}

// TestDegradedModeShed: with Shed enabled and the detector tripped, cache
// hits keep being served while un-cached NAP misses are shed with ErrShed;
// clearing the detector restores full service, and the transitions are
// visible in /stats.
func TestDegradedModeShed(t *testing.T) {
	s, _ := newTestServer(t, Config{
		CacheSize:       64,
		DefaultDeadline: 5 * time.Second, Shed: true,
	})

	// Warm the cache for node 0 while healthy.
	if _, _, err := s.Classify([]int{0}); err != nil {
		t.Fatal(err)
	}

	// Trip the latency loop: one 30s call observation sends the EWMA far
	// past the 5s trip wire (the detector re-evaluates on observe).
	s.detector.ObserveFlush(30 * time.Second)
	if !s.detector.Degraded() {
		t.Fatal("detector did not trip on call latency")
	}

	if _, _, err := s.Classify([]int{0}); err != nil {
		t.Fatalf("degraded mode refused a cache hit: %v", err)
	}
	if _, _, err := s.Classify([]int{1}); !errors.Is(err, ErrShed) {
		t.Fatalf("degraded NAP miss: err %v, want ErrShed", err)
	}
	st := s.Stats()
	if st.Shed != 1 || !st.Degraded || st.DegradedTransitions != 1 {
		t.Fatalf("degraded stats: %+v", st)
	}

	// Fast calls decay the EWMA below the clear threshold (hysteresis:
	// trip/2) and service resumes.
	for i := 0; i < 64 && s.detector.Degraded(); i++ {
		s.detector.ObserveFlush(time.Millisecond)
	}
	if s.detector.Degraded() {
		t.Fatal("detector never cleared")
	}
	if _, _, err := s.Classify([]int{1}); err != nil {
		t.Fatalf("post-recovery miss: %v", err)
	}
	if st := s.Stats(); st.DegradedTransitions != 2 {
		t.Fatalf("transitions = %d, want 2 (trip + clear)", st.DegradedTransitions)
	}
}

// TestDegradedModeFixedServes: ModeFixed answers have strictly local
// support (the cheap path), so degraded mode must keep serving them even
// on cache misses.
func TestDegradedModeFixedServes(t *testing.T) {
	_, m := fixture(t)
	s := newWrappedServer(t, Config{
		Opt:             core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K},
		CacheSize:       64,
		DefaultDeadline: 5 * time.Second, Shed: true,
	}, nil)

	s.detector.ObserveFlush(30 * time.Second)
	if !s.detector.Degraded() {
		t.Fatal("detector did not trip")
	}
	if _, _, err := s.Classify([]int{2}); err != nil {
		t.Fatalf("degraded ModeFixed miss was shed: %v", err)
	}
	if st := s.Stats(); st.Shed != 0 {
		t.Fatalf("ModeFixed work shed: %+v", st)
	}
}

// TestShedRecoveryViaProbes: a latency trip must not outlive the overload
// it detected. Shedding stops the very calls that feed the latency EWMA,
// so without probes one pathological call would leave the daemon shedding
// 429s forever; here the daemon must re-learn the true call cost from
// probe traffic and leave degraded mode on its own — no test ever calls
// ObserveFlush after the trip.
func TestShedRecoveryViaProbes(t *testing.T) {
	s, _ := newTestServer(t, Config{
		DefaultDeadline: 5 * time.Second, Shed: true,
	})
	// Same trip wire shape as production (latency-only), but a nanosecond
	// probe clock: every request after the first of the episode is a probe on
	// any host, so the EWMA's decay converges in a bounded number of requests
	// and the test paces nothing.
	s.detector = qos.NewDetector(qos.DetectorConfig{
		TripLatency: 250 * time.Millisecond, ProbeInterval: time.Nanosecond,
	})
	s.detector.ObserveFlush(10 * time.Second) // the overload: one pathological call
	if !s.detector.Degraded() {
		t.Fatal("detector did not trip")
	}
	// The trip gates traffic: the episode's first request is shed.
	if _, _, err := s.Classify([]int{0}); !errors.Is(err, ErrShed) {
		t.Fatalf("first degraded request: err %v, want ErrShed", err)
	}

	// Offered load keeps arriving; only probes get through, and their
	// (fast) calls must decay the EWMA until the trip clears: from 10 s to
	// under the 125 ms clear wire takes about twenty samples at α = 0.2.
	for i := 0; i < 1000 && s.detector.Degraded(); i++ {
		if _, _, err := s.Classify([]int{1}); err != nil && !errors.Is(err, ErrShed) {
			t.Fatalf("degraded daemon returned %v, want ErrShed or success", err)
		}
	}
	if s.detector.Degraded() {
		t.Fatal("latency trip never recovered: the daemon would shed forever")
	}
	if _, _, err := s.Classify([]int{2}); err != nil {
		t.Fatalf("post-recovery request: %v", err)
	}
}

// TestInferErrorAccounted: an errored call must not vanish from /stats —
// its calls and targets stay on the books with infer_errors marking the
// failure, and the admission budget drains back to zero.
func TestInferErrorAccounted(t *testing.T) {
	s := newWrappedServer(t, Config{MaxPending: 64},
		func(b Backend) Backend {
			return &flakyBackend{Backend: b, inferErr: fmt.Errorf("kernel fault")}
		})
	_, _, err := s.Classify([]int{0, 1})
	if err == nil || errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want the backend's Infer error", err)
	}
	st := s.Stats()
	if st.InferErrors != 1 || st.InferCalls != 1 || st.Requests != 1 || st.Targets != 2 {
		t.Fatalf("errored call vanished from stats: %+v", st)
	}
	if st.PendingTargets != 0 {
		t.Fatalf("errored call leaked budget: %+v", st)
	}
}

// TestQoSEquivalence: with the whole overload-control stack enabled —
// admission budget, default deadline, tenant quotas, shedding (untripped),
// result cache — answers must stay bit-identical to direct Infer calls,
// cached and uncached alike.
func TestQoSEquivalence(t *testing.T) {
	s, dep := newTestServer(t, Config{
		MaxPending: 1 << 16, DefaultDeadline: time.Minute,
		Quotas: mustQuotas(t, "*=100000,probe=100000:100000:2"),
		Shed:   true, CacheSize: 4096,
	})
	ds, _ := fixture(t)
	targets := ds.Split.Test

	want, err := dep.Infer(targets, core.InferenceOptions{
		Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: fixModel.K})
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ { // round 2 is fully cache-served
		var wg sync.WaitGroup
		errs := make(chan error, len(targets))
		for i, v := range targets {
			wg.Add(1)
			go func(i, v int) {
				defer wg.Done()
				tenant := ""
				if i%2 == 0 {
					tenant = "probe"
				}
				preds, depths, err := s.ClassifyContext(context.Background(), []int{v}, tenant)
				if err != nil {
					errs <- fmt.Errorf("target %d: %v", v, err)
					return
				}
				if preds[0] != want.Pred[i] || depths[0] != want.Depths[i] {
					errs <- fmt.Errorf("round %d target %d: got (%d,%d), want (%d,%d)",
						round, v, preds[0], depths[0], want.Pred[i], want.Depths[i])
				}
			}(i, v)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
	if st := s.Stats(); st.Rejected != 0 || st.Shed != 0 || st.DeadlineExceeded != 0 {
		t.Fatalf("QoS-on equivalence run tripped overload control: %+v", st)
	}
}
