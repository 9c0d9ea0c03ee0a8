package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
)

// precisionModes is the mode matrix every tier is exercised under.
func precisionModes(m *Model) map[string]InferenceOptions {
	return map[string]InferenceOptions{
		"fixed":    {Mode: ModeFixed, TMin: 1, TMax: m.K},
		"distance": {Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K},
		"gate":     {Mode: ModeGate, TMin: 1, TMax: m.K},
	}
}

// TestPrecisionDefaultInert pins the default tier's safety property: an f64
// deployment propagates straight off the feature matrix — it holds no lowered
// copy of it, and no tier holds values of Â at all — and a round trip through
// a relaxed tier and back to f64 reproduces the reference results bit for
// bit.
func TestPrecisionDefaultInert(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Precision() != kernel.PrecisionF64 {
		t.Fatalf("default tier = %v, want f64", dep.Precision())
	}
	requireNoMirror := func(when string) {
		t.Helper()
		e, ok := dep.eng.(*tier[float64])
		if !ok || &e.base.x[0] != &dep.Graph.Features.Data[0] || e.base.qx != nil {
			t.Fatalf("%s: the f64 engine does not read Features in place, or holds values of Â", when)
		}
	}
	requireNoMirror("fresh deployment")
	opt := InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K}
	before, err := dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}
	dep.SetPrecision(kernel.PrecisionF32)
	if _, ok := dep.eng.(*tier[float32]); !ok || dep.Precision() != kernel.PrecisionF32 {
		t.Fatal("SetPrecision(f32) did not install the float32 engine")
	}
	if _, err := dep.Infer(ds.Split.Test, opt); err != nil {
		t.Fatal(err)
	}
	dep.SetPrecision(kernel.PrecisionF64)
	requireNoMirror("back at f64")
	after, err := dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "f64 round trip", after, before)
}

func TestSetPrecisionRejectsUnknownTier(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	defer func() {
		if recover() == nil {
			t.Fatal("SetPrecision(42) did not panic")
		}
	}()
	dep.SetPrecision(kernel.Precision(42))
}

// TestRelaxedTiersMatchF64 is the engine-level precision-equivalence test.
// The f32 tier must classify every test node identically to the f64
// reference in every mode, at the same personalized depths, with the same
// MAC accounting. The int8 tier's quantization error can legitimately flip
// a borderline node — that drift is what the benchmark's
// core.int8_top1_agree_share measures — so it is held to ≥97% prediction and
// depth agreement here, with full MAC parity whenever the depths do all agree.
func TestRelaxedTiersMatchF64(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	ref, err := NewDeployment(m, ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range precisionModes(m) {
		want, err := ref.Infer(ds.Split.Test, opt)
		if err != nil {
			t.Fatal(err)
		}

		dep.SetPrecision(kernel.PrecisionF32)
		got, err := dep.Infer(ds.Split.Test, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, name+"/f32", got, want)

		dep.SetPrecision(kernel.PrecisionInt8)
		got, err = dep.Infer(ds.Split.Test, opt)
		if err != nil {
			t.Fatal(err)
		}
		if a := agreement(got.Pred, want.Pred); a < 0.97 {
			t.Fatalf("%s/int8: prediction agreement %.3f < 0.97", name, a)
		}
		if a := agreement(got.Depths, want.Depths); a < 0.97 {
			t.Fatalf("%s/int8: depth agreement %.3f < 0.97", name, a)
		}
		if agreement(got.Depths, want.Depths) == 1 && got.MACs != want.MACs {
			t.Fatalf("%s/int8: same depths but MACs %+v, want %+v", name, got.MACs, want.MACs)
		}
	}
}

// agreement is the fraction of positions where a and b match.
func agreement(a, b []int) float64 {
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}

// TestRelaxedDeterminism pins what the relaxed tiers do guarantee about
// execution shape: results are identical across repeated calls, across the
// worker fan-out (batches merge in order) and — for the f32 tier, whose
// per-row arithmetic depends only on the row's ball — across batch splits.
// (The int8 tier's per-batch activation scale makes it batch-size-sensitive
// by design, so only same-batching determinism is claimed for it.)
func TestRelaxedDeterminism(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []kernel.Precision{kernel.PrecisionF32, kernel.PrecisionInt8} {
		dep.SetPrecision(p)
		opt := InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K, BatchSize: 5}
		a, err := dep.Infer(ds.Split.Test, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dep.Infer(ds.Split.Test, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, p.String()+" repeat", b, a)
	}

	dep.SetPrecision(kernel.PrecisionF32)
	full, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	split, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K, BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Pred {
		if full.Pred[i] != split.Pred[i] || full.Depths[i] != split.Depths[i] {
			t.Fatalf("f32 batching changed results at %d", i)
		}
	}
}

// TestRelaxedDeltaRebuildsMirrors asserts the mirror maintenance contract:
// after ApplyDelta, a relaxed deployment's lowered operands must track the
// patched adjacency and features, making it indistinguishable from a fresh
// deployment of the merged graph at the same tier.
func TestRelaxedDeltaRebuildsMirrors(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	for _, p := range []kernel.Precision{kernel.PrecisionF32, kernel.PrecisionInt8} {
		// Carved fresh per tier: ApplyDelta mutates the base graph.
		base, delta := carveDelta(t, ds, 3)
		dep, err := NewDeployment(m, base)
		if err != nil {
			t.Fatal(err)
		}
		dep.SetPrecision(p)
		if _, err := dep.ApplyDelta(delta.Clone()); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewDeployment(m, ds.Graph)
		if err != nil {
			t.Fatal(err)
		}
		fresh.SetPrecision(p)
		for name, opt := range precisionModes(m) {
			want, err := fresh.Infer(ds.Split.Test, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dep.Infer(ds.Split.Test, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "delta/"+p.String()+"/"+name, got, want)
		}
	}
}

// TestTraceSpansSameAtEveryTier: the tiers share one engine loop, so a traced
// request leaves the same span sequence at each — bfs, extract, then per hop
// propagate{hop}, decide on decision hops and, past the layer (h = 1 here), a
// second propagate{hop} for the rows the next hop reads, classify whenever
// someone exits — the relaxed tiers' decide span, and int8's empty second
// step, included.
func TestTraceSpansSameAtEveryTier(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	o := obs.New(obs.Options{})
	// Ts = 0: nobody exits early, so the sequence does not depend on the
	// tier's arithmetic.
	opt := InferenceOptions{Mode: ModeDistance, Ts: 0, TMin: 1, TMax: m.K}
	want := "bfs extract"
	for l := 1; l <= m.K; l++ {
		want += fmt.Sprintf(" propagate%d", l)
		if l < m.K {
			want += " decide"
		}
		if 1 < l && l < m.K {
			want += fmt.Sprintf(" propagate%d", l)
		}
	}
	want += " classify"
	for _, p := range tiers {
		dep := deployAt(t, m, ds.Graph, p)
		tr := o.StartTrace()
		if _, err := dep.InferContext(obs.ContextWithTrace(context.Background(), tr), ds.Split.Test[:5], opt); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, sp := range tr.Spans() {
			name := sp.Stage.String()
			if sp.Stage == obs.StagePropagate {
				name += fmt.Sprint(sp.Hop)
			}
			got = append(got, name)
		}
		if strings.Join(got, " ") != want {
			t.Fatalf("%v: spans %q, want %q", p, strings.Join(got, " "), want)
		}
	}
}

// TestTraceSpansSumToFPTime: the engine reads the clock once per stage
// boundary and feeds both Result and the trace from those readings, so on a
// traced request whose targets exit in several waves, over several batches,
// the propagate and decide spans sum exactly to FPTime and every span together
// fits inside TotalTime.
func TestTraceSpansSumToFPTime(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	o := obs.New(obs.Options{})
	for _, p := range tiers {
		dep := deployAt(t, m, ds.Graph, p)
		opt := InferenceOptions{Mode: ModeDistance, Ts: dep.DistanceQuantile(ds.Split.Val, 1, 0.5),
			TMin: 1, TMax: m.K, BatchSize: len(ds.Split.Test)/3 + 1}
		tr := o.StartTrace()
		res, err := dep.InferContext(obs.ContextWithTrace(context.Background(), tr), ds.Split.Test, opt)
		if err != nil {
			t.Fatal(err)
		}
		waves := 0
		for l := 1; l < m.K; l++ {
			if res.NodesPerDepth[l] > 0 {
				waves++
			}
		}
		if waves < 2 || res.NodesPerDepth[m.K] == 0 {
			t.Fatalf("%v: exits per depth %v, want early waves at two depths and survivors to TMax", p, res.NodesPerDepth)
		}
		var fp, all time.Duration
		for _, sp := range tr.Spans() {
			if sp.Stage == obs.StagePropagate || sp.Stage == obs.StageDecide {
				fp += sp.Dur
			}
			all += sp.Dur
		}
		if fp != res.FPTime {
			t.Fatalf("%v: propagate and decide spans sum to %v, FPTime %v", p, fp, res.FPTime)
		}
		if all > res.TotalTime {
			t.Fatalf("%v: spans sum to %v, more than TotalTime %v", p, all, res.TotalTime)
		}
	}
}
