package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

// TestShardedPrecisionEquivalence pins the relaxed tiers across the shard
// boundary. Every worker holds the whole graph and a request is one call to
// one worker, so a sharded f32 or int8 fleet must answer exactly like
// an unsharded deployment at the same tier — predictions, depths, histogram
// and MACs — over the in-process and HTTP transports; int8 must also stay in
// high agreement with the f64 reference. Every comparison runs cold and then
// warm: the relaxed tiers' workers memoize hop 1 like f64 ones, and a
// memoized row must not move an answer.
func TestShardedPrecisionEquivalence(t *testing.T) {
	ds, m := fixture(t)
	targets := ds.Split.Test
	for _, p := range []int{1, 2} {
		dep, err := core.NewDeployment(m, ds.Graph.Clone())
		if err != nil {
			t.Fatal(err)
		}
		dep.SetPrecision(kernel.PrecisionF32)
		rt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: p, Precision: kernel.PrecisionF32})
		if err != nil {
			t.Fatal(err)
		}
		tr32, _ := startWorkersAt(t, p, kernel.PrecisionF32)
		cfg32 := fastRetry(p)
		cfg32.Precision = kernel.PrecisionF32
		hrt32, err := NewRouterTransport(m, ds.Graph.Clone(), cfg32, tr32)
		if err != nil {
			t.Fatal(err)
		}
		// Twice: the second pass is served by hop-1 memos the first one filled.
		for _, pass := range []string{"cold", "warm"} {
			requireSameAnswers(t, fmt.Sprintf("f32/local/P=%d/%s", p, pass), rt, dep, targets)
			requireSameAnswers(t, fmt.Sprintf("f32/http/P=%d/%s", p, pass), hrt32, dep, targets)
		}
		rt.Probe(context.Background())
		if s := rt.Describe().Hop1; s.FromMemo == 0 {
			t.Fatalf("f32/P=%d: the workers' memos served nothing: %+v", p, s)
		}
		if err := hrt32.Close(); err != nil {
			t.Fatal(err)
		}

		ref, err := core.NewDeployment(m, ds.Graph.Clone())
		if err != nil {
			t.Fatal(err)
		}
		dep8, err := core.NewDeployment(m, ds.Graph.Clone())
		if err != nil {
			t.Fatal(err)
		}
		dep8.SetPrecision(kernel.PrecisionInt8)
		lrt, err := NewRouter(m, ds.Graph.Clone(), Config{Shards: p, Precision: kernel.PrecisionInt8})
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := startWorkersAt(t, p, kernel.PrecisionInt8)
		cfg := fastRetry(p)
		cfg.Precision = kernel.PrecisionInt8
		hrt, err := NewRouterTransport(m, ds.Graph.Clone(), cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			requireSameAnswers(t, fmt.Sprintf("int8/local/P=%d/%s", p, pass), lrt, dep8, targets)
			requireSameAnswers(t, fmt.Sprintf("int8/http/P=%d/%s", p, pass), hrt, dep8, targets)
			for oi, opt := range inferOpts(m) {
				want, err := ref.Infer(targets, opt)
				if err != nil {
					t.Fatal(err)
				}
				local, err := lrt.Infer(targets, opt)
				if err != nil {
					t.Fatal(err)
				}
				same := 0
				for i := range targets {
					if local.Pred[i] == want.Pred[i] {
						same++
					}
				}
				if a := float64(same) / float64(len(targets)); a < 0.97 {
					t.Fatalf("int8/P=%d/%s opt%d: agreement with f64 %.3f < 0.97", p, pass, oi, a)
				}
			}
		}
		lrt.Probe(context.Background())
		if s := lrt.Describe().Hop1; s.FromMemo == 0 {
			t.Fatalf("int8/P=%d: the workers' memos served nothing: %+v", p, s)
		}
		if err := hrt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrecisionHandshakeRejected: a router must refuse to start over workers
// bootstrapped at a different precision tier — mixed-tier fleets would serve
// answers from two different kernels behind one endpoint.
func TestPrecisionHandshakeRejected(t *testing.T) {
	ds, m := fixture(t)
	tr, _ := startWorkers(t, 2) // f64 workers
	cfg := fastRetry(2)
	cfg.Precision = kernel.PrecisionInt8
	if _, err := NewRouterTransport(m, ds.Graph.Clone(), cfg, tr); err == nil {
		t.Fatal("precision mismatch accepted at handshake")
	}
}

// TestPrecisionRequestConflict: a request carrying a tier the worker does not
// serve (racing a fleet reconfiguration past the handshake) is a 409 the
// transport classifies as permanent — not transient (retry cannot fix it)
// and not stale (replay cannot either).
func TestPrecisionRequestConflict(t *testing.T) {
	ds, m := fixture(t)
	w, err := NewWorker(m, ds.Graph.Clone(), Config{Shards: 1}, 0) // f64
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(WorkerHandler(w))
	t.Cleanup(srv.Close)
	tr := NewHTTPTransport([]string{srv.URL}, HTTPTransportConfig{})
	t.Cleanup(func() { tr.Close() })
	_, err = tr.Infer(context.Background(), 0,
		&InferRequest{Version: 1, Targets: []int{0}, Precision: kernel.PrecisionF32})
	if err == nil {
		t.Fatal("precision conflict accepted")
	}
	if IsTransient(err) {
		t.Fatalf("precision conflict classified transient: %v", err)
	}
	var stale *StaleError
	if errors.As(err, &stale) {
		t.Fatalf("precision conflict surfaced as stale: %v", err)
	}
	var pe *precisionError
	if !errors.As(err, &pe) {
		t.Fatalf("want precisionError, got %v", err)
	}
}

// TestPrecisionConfigValidated: both bootstrap paths reject a tier this
// build does not know, before any state is cut.
func TestPrecisionConfigValidated(t *testing.T) {
	ds, m := fixture(t)
	bad := Config{Shards: 1, Precision: kernel.Precision(9)}
	if _, err := NewWorker(m, ds.Graph.Clone(), bad, 0); err == nil {
		t.Fatal("NewWorker accepted an unknown tier")
	}
	if _, err := NewRouter(m, ds.Graph.Clone(), bad); err == nil {
		t.Fatal("NewRouter accepted an unknown tier")
	}
	if _, err := NewRouterTransport(m, ds.Graph.Clone(), bad, NewLocalTransport(nil)); err == nil {
		t.Fatal("NewRouterTransport accepted an unknown tier")
	}
}
