package bench

import (
	"fmt"
	"sync"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synth"
)

// Suite bundles one dataset with a trained NAI model and lazily trained
// baselines; it is memoized per (dataset, model, config) so experiments
// sharing a setting share the training cost.
type Suite struct {
	Cfg     Config
	DS      *synth.Dataset
	Model   *core.Model
	Dep     *core.Deployment
	Teacher *baselines.TeacherData

	glnnOnce   sync.Once
	glnn       *baselines.GLNN
	nosmogOnce sync.Once
	nosmog     *baselines.NOSMOG
	tinyOnce   sync.Once
	tiny       *baselines.TinyGNN
	quantOnce  sync.Once
	quant      *baselines.Quantized
}

var (
	suiteMu    sync.Mutex
	suiteCache = map[string]*Suite{}
)

// GetSuite trains (or fetches the cached) suite for a dataset and base model.
func GetSuite(cfg Config, dataset, model string) (*Suite, error) {
	key := fmt.Sprintf("%s/%s/q=%v/seed=%d", dataset, model, cfg.Quick, cfg.Seed)
	suiteMu.Lock()
	defer suiteMu.Unlock()
	if s, ok := suiteCache[key]; ok {
		return s, nil
	}
	s, err := newSuite(cfg, dataset, model)
	if err != nil {
		return nil, err
	}
	suiteCache[key] = s
	return s, nil
}

func newSuite(cfg Config, dataset, model string) (*Suite, error) {
	dcfg, err := cfg.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	ds, err := synth.Generate(dcfg)
	if err != nil {
		return nil, err
	}
	topt := cfg.TrainOptions(model)
	m, err := core.Train(ds.Graph, ds.Split, topt)
	if err != nil {
		return nil, err
	}
	dep, err := core.NewDeployment(m, ds.Graph)
	if err != nil {
		return nil, err
	}
	td := baselines.PrepareTeacher(ds.Graph, ds.Split, m)
	td.SetLabeledFrac(topt.LabeledFrac, topt.Seed)
	return &Suite{
		Cfg:     cfg,
		DS:      ds,
		Model:   m,
		Dep:     dep,
		Teacher: td,
	}, nil
}

// GLNN returns the lazily trained GLNN baseline.
func (s *Suite) GLNN() *baselines.GLNN {
	s.glnnOnce.Do(func() {
		cfg := baselines.DefaultGLNNConfig()
		cfg.Seed = s.Cfg.Seed
		// the paper widens GLNN students on the larger datasets
		cfg.Hidden = []int{4 * s.DS.Graph.F()}
		if s.Cfg.Quick {
			cfg.Epochs = 60
			cfg.Hidden = []int{2 * s.DS.Graph.F()}
		}
		s.glnn = baselines.TrainGLNN(s.Teacher, cfg)
	})
	return s.glnn
}

// NOSMOG returns the lazily trained NOSMOG baseline.
func (s *Suite) NOSMOG() *baselines.NOSMOG {
	s.nosmogOnce.Do(func() {
		cfg := baselines.DefaultNOSMOGConfig()
		cfg.Seed = s.Cfg.Seed
		if s.Cfg.Quick {
			cfg.Epochs = 60
		}
		s.nosmog = baselines.TrainNOSMOG(s.Teacher, cfg)
	})
	return s.nosmog
}

// TinyGNN returns the lazily trained TinyGNN baseline. The attention width
// matches the feature dimension (no bottleneck), which is what makes
// TinyGNN's per-node MACs large relative to SGC — the paper's observation.
func (s *Suite) TinyGNN() *baselines.TinyGNN {
	s.tinyOnce.Do(func() {
		cfg := baselines.DefaultTinyGNNConfig()
		cfg.Seed = s.Cfg.Seed
		cfg.AttnDim = s.DS.Graph.F()
		cfg.Peers = 8
		cfg.Hidden = []int{2 * s.DS.Graph.F()}
		if s.Cfg.Quick {
			cfg.Epochs = 60
		}
		s.tiny = baselines.TrainTinyGNN(s.Teacher, cfg)
	})
	return s.tiny
}

// Quantized returns the lazily converted INT8 baseline.
func (s *Suite) Quantized() *baselines.Quantized {
	s.quantOnce.Do(func() { s.quant = baselines.NewQuantized(s.Model) })
	return s.quant
}

// DistanceQuantile returns the q-quantile of the validation nodes'
// stationary distances Δ^{(l)} (Eq. 8), the knob users tune T_s with. The
// suite's own split and model always make a valid call, so an error is a bug
// and panics.
func (s *Suite) DistanceQuantile(l int, q float64) float64 {
	ts, err := s.Dep.DistanceQuantile(s.DS.Split.Val, l, q)
	if err != nil {
		panic(err)
	}
	return ts
}

// NAISetting is one operating point of Algorithm 1.
type NAISetting struct {
	Name       string
	Ts         float64
	TMin, TMax int
}

// SettingsDistance returns the three NAI_d operating points mirroring the
// paper's NAI¹ (speed-first) / NAI² (balanced) / NAI³ (accuracy-first).
// Like the paper's Table VI distributions, the speed-first point truncates
// at T_max=2 with a low threshold (only the smoothest nodes exit at 1, the
// bulk classifies at depth 2), the balanced point works at mid depths, and
// the accuracy-first point keeps the full depth range available.
func (s *Suite) SettingsDistance() [3]NAISetting {
	k := s.Model.K
	mid := (k + 2) / 2
	if mid < 2 {
		mid = 2
	}
	return [3]NAISetting{
		{Name: "NAI1_d", Ts: s.DistanceQuantile(1, 0.05), TMin: 1, TMax: min(2, k)},
		{Name: "NAI2_d", Ts: s.DistanceQuantile(2, 0.50), TMin: 2, TMax: min(mid, k)},
		{Name: "NAI3_d", Ts: s.DistanceQuantile(2, 0.25), TMin: 2, TMax: k},
	}
}

// SettingsGate returns the three NAI_g operating points (the gates are
// fixed after training; T_min/T_max set the latency budget).
func (s *Suite) SettingsGate() [3]NAISetting {
	k := s.Model.K
	mid := (k + 2) / 2
	if mid < 2 {
		mid = 2
	}
	return [3]NAISetting{
		{Name: "NAI1_g", TMin: 1, TMax: min(2, k)},
		{Name: "NAI2_g", TMin: 1, TMax: min(mid, k)},
		{Name: "NAI3_g", TMin: 1, TMax: k},
	}
}

// --- method evaluation -------------------------------------------------

// EvalResult couples the paper's five criteria with the depth distribution.
type EvalResult struct {
	Stats         metrics.RunStats
	NodesPerDepth []int
}

// EvalVanilla measures the vanilla base model (fixed depth K).
func (s *Suite) EvalVanilla() (EvalResult, error) {
	return s.EvalNAI(core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: s.Model.K})
}

// EvalNAI measures one NAI operating point (or fixed-depth ablation) on
// the full test set with the suite's default batch size.
func (s *Suite) EvalNAI(opt core.InferenceOptions) (EvalResult, error) {
	opt.BatchSize = s.Cfg.BatchSize
	return s.EvalNAIOn(opt, s.DS.Split.Test)
}

// EvalNAIOn measures one NAI operating point on specific targets;
// opt.BatchSize is honored as given.
func (s *Suite) EvalNAIOn(opt core.InferenceOptions, targets []int) (EvalResult, error) {
	var agg metrics.Aggregate
	var last *core.Result
	for run := 0; run < s.Cfg.Runs; run++ {
		res, err := s.Dep.Infer(targets, opt)
		if err != nil {
			return EvalResult{}, err
		}
		acc := metrics.Accuracy(res.Pred, s.DS.Graph.Labels, targets)
		agg.Add(metrics.NewRunStats(acc, res.MACs, res.TotalTime, res.FPTime, res.NumTargets))
		last = res
	}
	return EvalResult{Stats: agg.Mean(), NodesPerDepth: last.NodesPerDepth}, nil
}

// EvalBaseline measures a named baseline ("glnn", "nosmog", "tinygnn",
// "quantization") on the full test set.
func (s *Suite) EvalBaseline(name string) (EvalResult, error) {
	return s.EvalBaselineOn(name, s.DS.Split.Test, s.Cfg.BatchSize)
}

// EvalBaselineOn measures a named baseline on specific targets.
func (s *Suite) EvalBaselineOn(name string, targets []int, batchSize int) (EvalResult, error) {
	run := func() *baselines.Result {
		switch name {
		case "glnn":
			return s.GLNN().Infer(s.DS.Graph, targets, batchSize)
		case "nosmog":
			return s.NOSMOG().Infer(s.DS.Graph, targets, batchSize)
		case "tinygnn":
			return s.TinyGNN().Infer(s.DS.Graph, targets, batchSize)
		case "quantization":
			return s.Quantized().Infer(s.DS.Graph, targets, batchSize)
		default:
			return nil
		}
	}
	var agg metrics.Aggregate
	for i := 0; i < s.Cfg.Runs; i++ {
		res := run()
		if res == nil {
			return EvalResult{}, fmt.Errorf("bench: unknown baseline %q", name)
		}
		acc := metrics.Accuracy(res.Pred, s.DS.Graph.Labels, targets)
		agg.Add(metrics.NewRunStats(acc, res.MACs, res.TotalTime, res.FPTime, res.NumTargets))
	}
	return EvalResult{Stats: agg.Mean()}, nil
}

// TestSubset returns up to n test targets (Figure 5 uses fixed batches).
func (s *Suite) TestSubset(n int) []int {
	t := s.DS.Split.Test
	if n > len(t) {
		n = len(t)
	}
	return t[:n]
}
