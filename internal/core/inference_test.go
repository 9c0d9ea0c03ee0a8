package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/scalable"
	"repro/internal/sparse"
)

func TestInferenceOptionValidation(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	bad := []InferenceOptions{
		{Mode: ModeFixed, TMin: 0, TMax: 2},
		{Mode: ModeFixed, TMin: 3, TMax: 2},
		{Mode: ModeFixed, TMin: 1, TMax: m.K + 1},
	}
	for i, opt := range bad {
		if _, err := dep.Infer(ds.Split.Test, opt); err == nil {
			t.Fatalf("options %d accepted", i)
		}
	}
}

func TestGateModeRequiresGates(t *testing.T) {
	ds := tinyData(t)
	opt := fastOptions("sgc")
	opt.TrainGates = false
	opt.DisableMultiScale = true
	m, err := Train(ds.Graph, ds.Split, opt)
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := NewDeployment(m, ds.Graph)
	if _, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeGate, TMin: 1, TMax: m.K}); err == nil {
		t.Fatal("gate mode without gates accepted")
	}
}

func TestEmptyTargets(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	res, err := dep.Infer(nil, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTargets != 0 || len(res.Pred) != 0 {
		t.Fatal("empty inference should be empty")
	}
}

func TestDepthAccounting(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: 0.5, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.NodesPerDepth {
		total += c
	}
	if total != len(ds.Split.Test) {
		t.Fatalf("depth counts sum to %d, want %d", total, len(ds.Split.Test))
	}
	for i, d := range res.Depths {
		if d < 1 || d > m.K {
			t.Fatalf("target %d assigned depth %d", i, d)
		}
	}
}

func TestDistanceSemanticsExact(t *testing.T) {
	// NAP_d inference must match a reference implementation that propagates
	// the full graph and applies Eq. 9 literally.
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)

	ts := 0.8
	tmin, tmax := 1, m.K
	res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: ts, TMin: tmin, TMax: tmax})
	if err != nil {
		t.Fatal(err)
	}

	norm := sparse.NewNormalized(ds.Graph.Adj, m.Gamma, sparse.LoopedDegrees(ds.Graph.Adj))
	feats := scalable.Propagate(norm, ds.Graph.Features, m.K)
	st := ComputeStationary(ds.Graph.Adj, ds.Graph.Features, m.Gamma)
	xinf := st.Full()

	for i, v := range ds.Split.Test {
		depth := tmax
		for l := tmin; l < tmax; l++ {
			d := rowDist(feats[l].Row(v), xinf.Row(v))
			if d < ts {
				depth = l
				break
			}
		}
		if res.Depths[i] != depth {
			t.Fatalf("node %d: engine depth %d, reference %d", v, res.Depths[i], depth)
		}
		stack := make([]*mat.Matrix, depth+1)
		for j := 0; j <= depth; j++ {
			stack[j] = feats[j].GatherRows([]int{v})
		}
		want := m.Classifiers[depth].Predict(m.Combiner.Combine(stack, depth))[0]
		if res.Pred[i] != want {
			t.Fatalf("node %d: engine pred %d, reference %d", v, res.Pred[i], want)
		}
	}
}

// TestDistanceQuantileMatchesFullPropagation pins the T_s tuner to the
// formula it replaced — Δ^(l) from a full-graph propagation over the
// materialized Â, sorted, indexed at int(q·(len−1)) — bit for bit at l ∈
// {1, 2}, whatever tier the deployment serves at.
func TestDistanceQuantileMatchesFullPropagation(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	feats := scalable.Propagate(sparse.NewNormalized(ds.Graph.Adj, m.Gamma, sparse.LoopedDegrees(ds.Graph.Adj)), ds.Graph.Features, 2)
	st := ComputeStationary(ds.Graph.Adj, ds.Graph.Features, m.Gamma)
	val := ds.Split.Val
	for _, prec := range []kernel.Precision{kernel.PrecisionF64, kernel.PrecisionInt8} {
		dep.SetPrecision(prec)
		for l := 1; l <= 2; l++ {
			d := mat.RowDistances(feats[l].GatherRows(val), st.Rows(val))
			sort.Float64s(d)
			for _, q := range []float64{0, 0.05, 0.1, 0.25, 0.3, 0.5, 0.9, 1} {
				want := d[int(q*float64(len(d)-1))]
				if got := dep.DistanceQuantile(val, l, q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v l=%d q=%v: %v, full propagation gives %v", prec, l, q, got, want)
				}
			}
		}
	}
	if got := dep.DistanceQuantile(nil, 1, 0.5); got != 0 {
		t.Fatalf("no nodes: %v, want 0", got)
	}
}

func TestHugeThresholdExitsAtTMin(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: 1e9, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesPerDepth[1] != len(ds.Split.Test) {
		t.Fatalf("all nodes should exit at depth 1, got %v", res.NodesPerDepth)
	}
}

func TestZeroThresholdStaysAtTMax(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: 0, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesPerDepth[m.K] != len(ds.Split.Test) {
		t.Fatalf("all nodes should stay to depth %d, got %v", m.K, res.NodesPerDepth)
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Larger T_s ⇒ earlier exits ⇒ average depth must not increase.
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	prev := math.Inf(1)
	for _, ts := range []float64{0.1, 0.5, 1.0, 2.0, 5.0} {
		res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: ts, TMin: 1, TMax: m.K})
		if err != nil {
			t.Fatal(err)
		}
		avg := avgDepth(res)
		if avg > prev+1e-9 {
			t.Fatalf("average depth increased from %v to %v at Ts=%v", prev, avg, ts)
		}
		prev = avg
	}
}

func TestTMinRespected(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: 1e9, TMin: 2, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesPerDepth[1] != 0 {
		t.Fatal("nodes exited below TMin")
	}
	if res.NodesPerDepth[2] != len(ds.Split.Test) {
		t.Fatalf("all nodes should exit at TMin=2, got %v", res.NodesPerDepth)
	}
}

func TestEarlyExitSavesPropagationMACs(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	fixed, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: 1e9, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.MACs.Propagation >= fixed.MACs.Propagation {
		t.Fatalf("early exit did not save propagation MACs: %d vs %d",
			adaptive.MACs.Propagation, fixed.MACs.Propagation)
	}
}

func TestFixedModeSkipsNAPCosts(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	if res.MACs.Stationary != 0 || res.MACs.Decision != 0 {
		t.Fatalf("fixed mode charged NAP costs: %+v", res.MACs)
	}
	if res.MACs.Propagation == 0 || res.MACs.Classification == 0 {
		t.Fatalf("fixed mode missing base costs: %+v", res.MACs)
	}
}

func TestMACBreakdownArithmetic(t *testing.T) {
	b := MACBreakdown{Stationary: 1, Propagation: 2, Decision: 4, Combine: 8, Classification: 16}
	if b.Total() != 31 {
		t.Fatalf("Total = %d", b.Total())
	}
	if b.FeatureProcessing() != 6 {
		t.Fatalf("FeatureProcessing = %d", b.FeatureProcessing())
	}
}

func TestGateModeRuns(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeGate, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.NodesPerDepth {
		total += c
	}
	if total != len(ds.Split.Test) {
		t.Fatal("gate mode lost nodes")
	}
	if res.MACs.Decision == 0 && res.NodesPerDepth[m.K] != len(ds.Split.Test) {
		t.Fatal("gate decisions not charged")
	}
	acc := accuracyOn(ds.Graph, ds.Split.Test, res.Pred)
	if acc < 1.5/float64(ds.Graph.NumClasses) {
		t.Fatalf("gate-mode accuracy %v too low", acc)
	}
}

func TestGateDecisionDeterministic(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	opt := InferenceOptions{Mode: ModeGate, TMin: 1, TMax: m.K}
	a, err := dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dep.Infer(ds.Split.Test, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Depths {
		if a.Depths[i] != b.Depths[i] {
			t.Fatal("gate inference not deterministic")
		}
	}
}

func TestResultTimesPopulated(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeDistance, Ts: 0.5, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Fatal("TotalTime not measured")
	}
	if res.FPTime <= 0 || res.FPTime > res.TotalTime {
		t.Fatalf("FPTime %v inconsistent with TotalTime %v", res.FPTime, res.TotalTime)
	}
}

func rowDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func avgDepth(r *Result) float64 {
	var s float64
	for _, d := range r.Depths {
		s += float64(d)
	}
	return s / float64(len(r.Depths))
}

// TestParseMode: every mode name parses, and a typo or a -ts-quantile outside
// [0, 1] is an error, which naiserve and naiinfer report before any training
// runs.
func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		name string
		q    float64
		want Mode
		ok   bool
	}{
		{"fixed", 0.3, ModeFixed, true},
		{"distance", 0, ModeDistance, true},
		{"distance", 1, ModeDistance, true},
		{"gate", 0.5, ModeGate, true},
		{"distanse", 0.3, 0, false},
		{"", 0.3, 0, false},
		{"distance", -0.1, 0, false},
		{"distance", 1.5, 0, false},
		{"distance", math.NaN(), 0, false},
	} {
		got, err := ParseMode(c.name, c.q)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseMode(%q, %v) = %v, %v; want %v, ok %v", c.name, c.q, got, err, c.want, c.ok)
		}
	}
}
