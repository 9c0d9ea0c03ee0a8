package serve

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/shard"
)

// TestPrecisionServingEquivalence runs the full serving stack — result
// cache, admission, and shard fleets over both transports — at each relaxed
// tier against the f64 reference. The f32 tier must classify every node
// identically (its per-row arithmetic is a pure function of the row's
// ball); the int8 tier may flip borderline nodes within the agreement
// budget asserted below, but must answer deterministically: the cached
// second pass reproduces the first bit for bit, and /stats names the
// active tier.
func TestPrecisionServingEquivalence(t *testing.T) {
	ds, m := fixture(t)
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: 0.3, TMin: 1, TMax: m.K}
	cfg := Config{Opt: opt, CacheSize: 256}
	targets := ds.Split.Test

	ref, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Infer(targets, opt)
	if err != nil {
		t.Fatal(err)
	}

	check := func(tag string, s *Server, prec kernel.Precision) {
		t.Helper()
		preds, depths, err := s.Classify(targets)
		if err != nil {
			t.Fatalf("%s: classify: %v", tag, err)
		}
		same := 0
		for i := range targets {
			if preds[i] == want.Pred[i] && depths[i] == want.Depths[i] {
				same++
			} else if prec == kernel.PrecisionF32 {
				t.Fatalf("%s target %d: (%d,%d) != f64 (%d,%d)",
					tag, targets[i], preds[i], depths[i], want.Pred[i], want.Depths[i])
			}
		}
		if a := float64(same) / float64(len(targets)); a < 0.97 {
			t.Fatalf("%s: agreement with f64 %.3f < 0.97", tag, a)
		}
		// Second pass is served from the result cache and must reproduce
		// the first answers exactly — caching is tier-oblivious.
		p2, d2, err := s.Classify(targets)
		if err != nil {
			t.Fatalf("%s: cached classify: %v", tag, err)
		}
		for i := range targets {
			if p2[i] != preds[i] || d2[i] != depths[i] {
				t.Fatalf("%s target %d: cached (%d,%d) != fresh (%d,%d)",
					tag, targets[i], p2[i], d2[i], preds[i], depths[i])
			}
		}
		if st := s.Stats(); st.Precision != prec.String() {
			t.Fatalf("%s: /stats precision %q, want %q", tag, st.Precision, prec)
		}
	}

	for _, prec := range []kernel.Precision{kernel.PrecisionF32, kernel.PrecisionInt8} {
		// Single deployment behind the daemon.
		dep, err := core.NewDeployment(m, ds.Graph.Clone())
		if err != nil {
			t.Fatal(err)
		}
		dep.SetPrecision(prec)
		s := New(dep, cfg)
		t.Cleanup(s.Close)
		check("single/"+prec.String(), s, prec)

		for _, p := range []int{1, 2} {
			rt, err := shard.NewRouter(m, ds.Graph.Clone(),
				shard.Config{Shards: p, Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			ls := NewBackend(rt, cfg)
			t.Cleanup(ls.Close)
			check(fmt.Sprintf("local/P=%d/%s", p, prec), ls, prec)

			hs, _, _ := newDistributedServerAt(t, p, cfg, prec)
			check(fmt.Sprintf("http/P=%d/%s", p, prec), hs, prec)
		}
	}

	// The default tier reports itself too.
	s, _ := newTestServer(t, cfg)
	if st := s.Stats(); st.Precision != "f64" {
		t.Fatalf("default /stats precision %q, want f64", st.Precision)
	}
}
