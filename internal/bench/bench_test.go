package bench

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// testConfig is even smaller than QuickConfig: tests only need the
// machinery to work, not meaningful numbers.
func testConfig() Config {
	return Config{Seed: 1, Runs: 1, BatchSize: 50, Quick: true}
}

func TestConfigDatasets(t *testing.T) {
	cfg := testConfig()
	for _, name := range DatasetNames() {
		dcfg, err := cfg.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := dcfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := cfg.Dataset("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestConfigTrainOptions(t *testing.T) {
	cfg := testConfig()
	for _, model := range []string{"sgc", "sign", "s2gc", "gamlp"} {
		opt := cfg.TrainOptions(model)
		if opt.Model != model {
			t.Fatalf("model %q", opt.Model)
		}
		if opt.K < 1 {
			t.Fatalf("%s: K=%d", model, opt.K)
		}
	}
	full := DefaultConfig().TrainOptions("sgc")
	quick := QuickConfig().TrainOptions("sgc")
	if quick.Base.Epochs >= full.Base.Epochs {
		t.Fatal("quick mode should shrink training")
	}
}

func TestGetSuiteCaches(t *testing.T) {
	cfg := testConfig()
	a, err := GetSuite(cfg, "flickr-like", "sgc")
	if err != nil {
		t.Fatal(err)
	}
	b, err := GetSuite(cfg, "flickr-like", "sgc")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("suite not cached")
	}
}

func TestSuiteSettings(t *testing.T) {
	s, err := GetSuite(testConfig(), "flickr-like", "sgc")
	if err != nil {
		t.Fatal(err)
	}
	d := s.SettingsDistance()
	if d[0].TMax > d[2].TMax {
		t.Fatal("speed-first setting should truncate earlier")
	}
	for _, set := range d {
		if set.TMin < 1 || set.TMax > s.Model.K || set.TMin > set.TMax {
			t.Fatalf("invalid setting %+v", set)
		}
		if set.Ts < 0 {
			t.Fatalf("negative threshold %+v", set)
		}
	}
	g := s.SettingsGate()
	if g[2].TMax != s.Model.K {
		t.Fatal("accuracy-first gate setting should reach K")
	}
}

func TestDistanceQuantileMonotone(t *testing.T) {
	s, err := GetSuite(testConfig(), "flickr-like", "sgc")
	if err != nil {
		t.Fatal(err)
	}
	lo := s.DistanceQuantile(1, 0.1)
	hi := s.DistanceQuantile(1, 0.9)
	if lo > hi {
		t.Fatalf("quantiles not monotone: %v > %v", lo, hi)
	}
	// distances shrink with depth on average (smoothing toward X(∞))
	d1 := s.DistanceQuantile(1, 0.5)
	dk := s.DistanceQuantile(s.Model.K, 0.5)
	if dk > d1 {
		t.Fatalf("median distance grew with depth: %v -> %v", d1, dk)
	}
}

func TestEvalVanillaAndNAI(t *testing.T) {
	s, err := GetSuite(testConfig(), "flickr-like", "sgc")
	if err != nil {
		t.Fatal(err)
	}
	van, err := s.EvalVanilla()
	if err != nil {
		t.Fatal(err)
	}
	if van.Stats.ACC <= 1.0/float64(s.DS.Graph.NumClasses) {
		t.Fatalf("vanilla accuracy %v at chance", van.Stats.ACC)
	}
	set := s.SettingsDistance()[0]
	nai, err := s.EvalNAI(core.InferenceOptions{
		Mode: core.ModeDistance, Ts: set.Ts, TMin: set.TMin, TMax: set.TMax})
	if err != nil {
		t.Fatal(err)
	}
	if nai.Stats.FPMMACs >= van.Stats.FPMMACs {
		t.Fatalf("NAI FP MACs %v not below vanilla %v", nai.Stats.FPMMACs, van.Stats.FPMMACs)
	}
}

func TestEvalBaselineUnknown(t *testing.T) {
	s, err := GetSuite(testConfig(), "flickr-like", "sgc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EvalBaseline("nope"); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestEvalAllBaselines(t *testing.T) {
	s, err := GetSuite(testConfig(), "flickr-like", "sgc")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"glnn", "nosmog", "tinygnn", "quantization"} {
		r, err := s.EvalBaseline(b)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if r.Stats.ACC <= 0 {
			t.Fatalf("%s: zero accuracy", b)
		}
	}
	// GLNN has no feature-processing cost; quantization does
	g, _ := s.EvalBaseline("glnn")
	q, _ := s.EvalBaseline("quantization")
	if g.Stats.FPMMACs != 0 {
		t.Fatal("GLNN FP MACs should be zero")
	}
	if q.Stats.FPMMACs == 0 {
		t.Fatal("quantization FP MACs should be nonzero")
	}
}

func TestTestSubset(t *testing.T) {
	s, err := GetSuite(testConfig(), "flickr-like", "sgc")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TestSubset(5); len(got) != 5 {
		t.Fatalf("subset size %d", len(got))
	}
	if got := s.TestSubset(1 << 30); len(got) != len(s.DS.Split.Test) {
		t.Fatal("oversized subset should cap")
	}
}

func TestFigure5BatchSizes(t *testing.T) {
	sizes := figure5BatchSizes(120)
	for _, b := range sizes {
		if b > 120 {
			t.Fatalf("batch %d exceeds test size", b)
		}
	}
	if got := figure5BatchSizes(10); len(got) != 1 || got[0] != 10 {
		t.Fatalf("tiny test set handling: %v", got)
	}
}

func TestRegistryCoversPaper(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Experiments() {
		names[e.Name] = true
		if e.Description == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.Name)
		}
	}
	for _, want := range ExperimentOrder() {
		if !names[want] {
			t.Fatalf("experiment %q missing from registry", want)
		}
	}
	// every evaluation table and figure of the paper is covered
	for _, want := range []string{"table1", "table2", "table5", "table6", "table7",
		"table8", "table9", "table10", "table11", "fig4", "fig5", "fig6"} {
		if !names[want] {
			t.Fatalf("paper artifact %q not covered", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", testConfig(), &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTable2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table2", testConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"flickr-like", "arxiv-like", "products-like"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %s:\n%s", want, out)
		}
	}
}

func TestRunConfigTablesOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("config", testConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sgc", "sign", "s2gc", "gamlp"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("config table missing %s", want)
		}
	}
}

func TestRunTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table1", testConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "O(kmf") || !strings.Contains(out, "vanilla") {
		t.Fatalf("table1 output malformed:\n%s", out)
	}
}

// trainedSuite provides the cached trained model of the inference benchmarks.
func trainedSuite(b *testing.B) *Suite {
	b.Helper()
	s, err := GetSuite(QuickConfig(), "flickr-like", "sgc")
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchInfer(b *testing.B, s *Suite, opt core.InferenceOptions) {
	targets := s.TestSubset(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Dep.Infer(targets, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferenceVanilla(b *testing.B) {
	s := trainedSuite(b)
	benchInfer(b, s, core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: s.Model.K, BatchSize: 50})
}

func BenchmarkInferenceNAIDistance(b *testing.B) {
	s := trainedSuite(b)
	set := s.SettingsDistance()[0]
	benchInfer(b, s, core.InferenceOptions{Mode: core.ModeDistance, Ts: set.Ts,
		TMin: set.TMin, TMax: set.TMax, BatchSize: 50})
}

func BenchmarkInferenceNAIGate(b *testing.B) {
	s := trainedSuite(b)
	set := s.SettingsGate()[0]
	benchInfer(b, s, core.InferenceOptions{Mode: core.ModeGate, TMin: set.TMin,
		TMax: set.TMax, BatchSize: 50})
}

// TestMethodRows pins the row lists of Table V, Fig. 4 and Fig. 5: which
// methods each prints, in which order, for every dataset it covers. The
// lists do not depend on the data, so every dataset's suite is the cached
// flickr-like one here, and the check trains nothing the other tests don't.
func TestMethodRows(t *testing.T) {
	cfg := testConfig()
	s, err := GetSuite(cfg, "flickr-like", "sgc")
	if err != nil {
		t.Fatal(err)
	}
	suiteMu.Lock()
	for _, name := range DatasetNames() {
		key := fmt.Sprintf("%s/sgc/q=%v/seed=%d", name, cfg.Quick, cfg.Seed)
		if suiteCache[key] == nil {
			suiteCache[key] = s
			defer func() { suiteMu.Lock(); delete(suiteCache, key); suiteMu.Unlock() }()
		}
	}
	suiteMu.Unlock()
	if other, err := GetSuite(cfg, "products-like", "sgc"); err != nil || other != s {
		t.Fatalf("products-like suite not aliased to the cached one (%v)", err)
	}

	baselines := []string{"glnn", "nosmog", "tinygnn", "quantization"}
	rows := func(exp string, nameCol int) map[string][]string {
		var buf bytes.Buffer
		if err := Run(exp, cfg, &buf); err != nil {
			t.Fatal(err)
		}
		// the rows follow the header's rule; a method runs once per
		// batch size in Fig. 5, so runs of one name count once
		got := map[string][]string{}
		lines := strings.Split(buf.String(), "\n")
		i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "---") })
		for _, l := range lines[i+1:] {
			f := strings.Fields(l)
			if len(f) == 0 {
				break
			}
			key := ""
			if nameCol > 0 {
				key = f[0]
			}
			if m := got[key]; len(m) == 0 || m[len(m)-1] != f[nameCol] {
				got[key] = append(m, f[nameCol])
			}
		}
		return got
	}
	check := func(exp string, got map[string][]string, keys []string, want []string) {
		t.Helper()
		if len(got) != len(keys) {
			t.Fatalf("%s: row groups %v, want %v", exp, got, keys)
		}
		for _, k := range keys {
			if !slices.Equal(got[k], want) {
				t.Fatalf("%s %s: rows %v, want %v", exp, k, got[k], want)
			}
		}
	}
	table5 := append(append([]string{"vanilla"}, baselines...), "NAI_d", "NAI_g")
	check("table5", rows("table5", 1), DatasetNames(), table5)
	fig4 := append(append([]string{"SGC"}, baselines...),
		"NAI1_d", "NAI2_d", "NAI3_d", "NAI1_g", "NAI2_g", "NAI3_g")
	check("fig4", rows("fig4", 1), DatasetNames(), fig4)
	fig5 := append(append([]string{"SGC"}, baselines...), "NAI_d", "NAI_g")
	check("fig5", rows("fig5", 0), []string{""}, fig5)
}
