package bench

import (
	"fmt"
	"sync"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/graph"
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

	mu      sync.Mutex
	trained map[string]baseline // the baselines trained so far, by name
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
		trained: map[string]baseline{},
	}, nil
}

// baseline is what the four acceleration baselines share.
type baseline interface {
	Infer(g *graph.Graph, targets []int, batchSize int) *core.Result
}

// baselineNames are the four acceleration baselines in the paper's order.
var baselineNames = []string{"glnn", "nosmog", "tinygnn", "quantization"}

// baseline returns the named baseline, training it on first use. Every
// student trains at the suite's seed, for 60 epochs in quick mode.
func (s *Suite) baseline(name string) (baseline, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.trained[name]; ok {
		return b, nil
	}
	f := s.DS.Graph.F()
	student := func(c *baselines.StudentConfig) {
		c.Seed = s.Cfg.Seed
		if s.Cfg.Quick {
			c.Epochs = 60
		}
	}
	var b baseline
	switch name {
	case "glnn":
		cfg := baselines.DefaultGLNNConfig()
		student(&cfg.StudentConfig)
		// the paper widens GLNN students on the larger datasets
		cfg.Hidden = []int{4 * f}
		if s.Cfg.Quick {
			cfg.Hidden = []int{2 * f}
		}
		b = baselines.TrainGLNN(s.Teacher, cfg)
	case "nosmog":
		cfg := baselines.DefaultNOSMOGConfig()
		student(&cfg.StudentConfig)
		b = baselines.TrainNOSMOG(s.Teacher, cfg)
	case "tinygnn":
		// The attention width matches the feature dimension (no
		// bottleneck), which is what makes TinyGNN's per-node MACs large
		// relative to SGC — the paper's observation.
		cfg := baselines.DefaultTinyGNNConfig()
		student(&cfg.StudentConfig)
		cfg.Hidden, cfg.AttnDim, cfg.Peers = []int{2 * f}, f, 8
		b = baselines.TrainTinyGNN(s.Teacher, cfg)
	case "quantization":
		b = baselines.NewQuantized(s.Model)
	default:
		return nil, fmt.Errorf("bench: unknown baseline %q", name)
	}
	s.trained[name] = b
	return b, nil
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
	Mode       core.Mode
	Ts         float64
	TMin, TMax int
}

// Options are the inference options of the setting (the suite's batch size
// is set where it is run).
func (set NAISetting) Options() core.InferenceOptions {
	return core.InferenceOptions{Mode: set.Mode, Ts: set.Ts, TMin: set.TMin, TMax: set.TMax}
}

// SettingsDistance returns the three NAI_d operating points mirroring the
// paper's NAI¹ (speed-first) / NAI² (balanced) / NAI³ (accuracy-first).
// Like the paper's Table VI distributions, the speed-first point truncates
// at T_max=2 with a low threshold (only the smoothest nodes exit at 1, the
// bulk classifies at depth 2), the balanced point works at mid depths, and
// the accuracy-first point keeps the full depth range available.
func (s *Suite) SettingsDistance() [3]NAISetting {
	t := s.tmaxes()
	return [3]NAISetting{
		{Name: "NAI1_d", Mode: core.ModeDistance, Ts: s.DistanceQuantile(1, 0.05), TMin: 1, TMax: t[0]},
		{Name: "NAI2_d", Mode: core.ModeDistance, Ts: s.DistanceQuantile(2, 0.50), TMin: 2, TMax: t[1]},
		{Name: "NAI3_d", Mode: core.ModeDistance, Ts: s.DistanceQuantile(2, 0.25), TMin: 2, TMax: t[2]},
	}
}

// SettingsGate returns the three NAI_g operating points (the gates are
// fixed after training; T_min/T_max set the latency budget).
func (s *Suite) SettingsGate() [3]NAISetting {
	t := s.tmaxes()
	return [3]NAISetting{
		{Name: "NAI1_g", Mode: core.ModeGate, TMin: 1, TMax: t[0]},
		{Name: "NAI2_g", Mode: core.ModeGate, TMin: 1, TMax: t[1]},
		{Name: "NAI3_g", Mode: core.ModeGate, TMin: 1, TMax: t[2]},
	}
}

// tmaxes are the T_max of the speed-first, balanced and accuracy-first
// points: 2, the middle depth and K, none past K.
func (s *Suite) tmaxes() [3]int {
	k := s.Model.K
	return [3]int{min(2, k), min(max((k+2)/2, 2), k), k}
}

// settings are the six operating points, NAI1_d…NAI3_d then NAI1_g…NAI3_g.
func (s *Suite) settings() []NAISetting {
	d, g := s.SettingsDistance(), s.SettingsGate()
	return append(d[:], g[:]...)
}

// speedFirst are NAI1_d and NAI1_g under the names Table V and Fig. 5 print,
// NAI_d and NAI_g.
func (s *Suite) speedFirst() []NAISetting {
	d, g := s.SettingsDistance()[0], s.SettingsGate()[0]
	d.Name, g.Name = "NAI_d", "NAI_g"
	return []NAISetting{d, g}
}

// --- method evaluation -------------------------------------------------

// EvalResult couples the paper's five criteria with the depth distribution.
type EvalResult struct {
	Stats         metrics.RunStats
	NodesPerDepth []int // nil for a baseline
}

// method is one row of the paper's comparisons: a name and a run of the
// method over targets in batches of batchSize.
type method struct {
	name  string
	infer func(targets []int, batchSize int) (*core.Result, error)
}

// methods is the one row list of Table V / IX–XI and Figs. 4–5: the base
// model at depth K under the name base, the four baselines, then the NAI
// settings.
func (s *Suite) methods(base string, settings ...NAISetting) []method {
	ms := []method{s.naiMethod(base, s.vanilla())}
	for _, name := range baselineNames {
		ms = append(ms, s.baselineMethod(name))
	}
	for _, set := range settings {
		ms = append(ms, s.naiMethod(set.Name, set.Options()))
	}
	return ms
}

// vanilla is the base model at its full depth K.
func (s *Suite) vanilla() core.InferenceOptions {
	return core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: s.Model.K}
}

// naiMethod runs Algorithm 1 under opt on the suite's deployment.
func (s *Suite) naiMethod(name string, opt core.InferenceOptions) method {
	return method{name, func(targets []int, batchSize int) (*core.Result, error) {
		opt.BatchSize = batchSize
		return s.Dep.Infer(targets, opt)
	}}
}

// baselineMethod runs a named baseline on the suite's graph.
func (s *Suite) baselineMethod(name string) method {
	return method{name, func(targets []int, batchSize int) (*core.Result, error) {
		b, err := s.baseline(name)
		if err != nil {
			return nil, err
		}
		return b.Infer(s.DS.Graph, targets, batchSize), nil
	}}
}

// evalOn times m over targets Cfg.Runs times and averages the paper's
// criteria; the depth distribution is the last run's.
func (s *Suite) evalOn(m method, targets []int, batchSize int) (EvalResult, error) {
	var agg metrics.Aggregate
	var last *core.Result
	for run := 0; run < s.Cfg.Runs; run++ {
		res, err := m.infer(targets, batchSize)
		if err != nil {
			return EvalResult{}, err
		}
		acc := metrics.Accuracy(res.Pred, s.DS.Graph.Labels, targets)
		agg.Add(metrics.NewRunStats(acc, res.MACs, res.TotalTime, res.FPTime, res.NumTargets))
		last = res
	}
	return EvalResult{Stats: agg.Mean(), NodesPerDepth: last.NodesPerDepth}, nil
}

// eval times m on the full test set at the suite's batch size.
func (s *Suite) eval(m method) (EvalResult, error) {
	return s.evalOn(m, s.DS.Split.Test, s.Cfg.BatchSize)
}

// EvalVanilla measures the vanilla base model (fixed depth K).
func (s *Suite) EvalVanilla() (EvalResult, error) { return s.EvalNAI(s.vanilla()) }

// EvalNAI measures one NAI operating point (or fixed-depth ablation) on
// the full test set with the suite's default batch size.
func (s *Suite) EvalNAI(opt core.InferenceOptions) (EvalResult, error) {
	return s.eval(s.naiMethod("", opt))
}

// EvalBaseline measures a named baseline ("glnn", "nosmog", "tinygnn",
// "quantization") on the full test set.
func (s *Suite) EvalBaseline(name string) (EvalResult, error) {
	return s.eval(s.baselineMethod(name))
}

// TestSubset returns up to n test targets (Figure 5 uses fixed batches).
func (s *Suite) TestSubset(n int) []int {
	t := s.DS.Split.Test
	if n > len(t) {
		n = len(t)
	}
	return t[:n]
}
