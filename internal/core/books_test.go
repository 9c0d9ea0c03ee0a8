package core

import (
	"context"
	"fmt"
	"testing"
)

// bookedOpts are the operating points TestBooksMatchesSeedLedger sweeps on a
// K = 5 model: every mode, TMax 1–5 and TMin 1 and 2, at batch sizes 1, 7 and
// one batch.
func bookedOpts(ts float64) []InferenceOptions {
	var opts []InferenceOptions
	for _, mode := range []Mode{ModeFixed, ModeDistance, ModeGate} {
		for tmax := 1; tmax <= 5; tmax++ {
			for tmin := 1; tmin <= min(2, tmax); tmin++ {
				for _, batch := range []int{1, 7, 0} {
					opts = append(opts, InferenceOptions{Mode: mode, Ts: ts, TMin: tmin, TMax: tmax, BatchSize: batch})
				}
			}
		}
	}
	return opts
}

// TestBooksMatchesSeedLedger: Books of the serving entry's depths is the ledger
// the seed transcription keeps, at every tier, in every mode, at TMax 1–5 and
// TMin 1 and 2, at batch sizes 1, 7 and one batch — cold, warm, after a delta
// and warm after it.
func TestBooksMatchesSeedLedger(t *testing.T) {
	ds := tinyData(t)
	m := trainedDeepModel(t)
	for _, p := range tiers {
		t.Run(p.String(), func(t *testing.T) {
			base, delta := carveDelta(t, ds, 12)
			dep := deployAt(t, m, base, p)
			var targets []int
			for _, v := range ds.Split.Test[:40] {
				targets = append(targets, v%base.N())
			}
			opts := bookedOpts(tsQuantile(t, dep, targets, 1, 0.5))
			early := 0 // answers with a target exiting before TMax
			check := func(stage string) {
				t.Helper()
				for _, opt := range opts {
					label := fmt.Sprintf("%v/%s/%v/tmin=%d/tmax=%d/batch=%d", p, stage, opt.Mode, opt.TMin, opt.TMax, opt.BatchSize)
					if stage == "cold" {
						recold(dep)
					}
					res, err := dep.InferContext(context.Background(), targets, opt)
					if err != nil {
						t.Fatal(err)
					}
					if res.NodesPerDepth[opt.TMax] < len(targets) {
						early++
					}
					requireSameResult(t, label, booked(t, dep, targets, opt, res), seedInfer(dep, targets, opt))
				}
			}
			check("cold")
			check("warm")
			if _, err := dep.ApplyDelta(delta.Clone()); err != nil {
				t.Fatal(err)
			}
			targets = append(rangeInts(dep.Graph.N()-12, dep.Graph.N()), targets...)
			check("after a delta")
			check("warm after the delta")
			if early == 0 {
				t.Fatal("no target exited before TMax: the sweep ran one BFS per batch")
			}
		})
	}
}

// TestBooksRejects: Books refuses invalid options, a depths slice of the wrong
// length and a depth the options never exit at.
func TestBooksRejects(t *testing.T) {
	ds := tinyData(t)
	m := trainedDeepModel(t)
	dep := deployAt(t, m, ds.Graph, tiers[0])
	targets := ds.Split.Test[:3]
	for _, c := range []struct {
		name   string
		opt    InferenceOptions
		depths []int
	}{
		{"TMax past K", InferenceOptions{Mode: ModeDistance, TMin: 1, TMax: m.K + 1}, []int{1, 1, 1}},
		{"short depths", InferenceOptions{Mode: ModeDistance, TMin: 1, TMax: 3}, []int{1, 1}},
		{"below TMin", InferenceOptions{Mode: ModeDistance, TMin: 2, TMax: 3}, []int{1, 2, 3}},
		{"past TMax", InferenceOptions{Mode: ModeDistance, TMin: 1, TMax: 3}, []int{1, 4, 3}},
		{"early exit without NAP", InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 3}, []int{3, 2, 3}},
	} {
		if _, err := dep.Books(targets, c.opt, c.depths); err == nil {
			t.Fatalf("%s: Books accepted depths %v under %+v", c.name, c.depths, c.opt)
		}
	}
}
