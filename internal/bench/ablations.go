package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synth"
)

// RunTable6 reproduces Table VI: the test-node depth distributions of the
// three NAI_d and three NAI_g operating points per dataset.
func RunTable6(cfg Config, w io.Writer) error {
	t := metrics.NewTable("Table VI — node distributions over personalized propagation depths (depth 1 … K)",
		"dataset", "setting", "distribution")
	for _, name := range DatasetNames() {
		s, err := GetSuite(cfg, name, "sgc")
		if err != nil {
			return err
		}
		for _, set := range s.settings() {
			r, err := s.EvalNAI(set.Options())
			if err != nil {
				return err
			}
			t.AddRow(name, set.Name, fmt.Sprint(r.NodesPerDepth[1:]))
		}
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

// RunTable7 reproduces Table VII: the NAP ablation. For each T_max, "NAI
// w/o NAP" classifies everything at T_max with the distilled classifier,
// while NAP_d / NAP_g exit early; accuracy should not drop and latency
// should not rise.
func RunTable7(cfg Config, w io.Writer) error {
	t := metrics.NewTable("Table VII — NAP ablation under different T_max (SGC)",
		"dataset", "T_max", "method", "ACC", "Time us/node", "distribution")
	for _, name := range []string{"arxiv-like", "products-like"} {
		s, err := GetSuite(cfg, name, "sgc")
		if err != nil {
			return err
		}
		k := s.Model.K
		// a conservative threshold reused across T_max values, tuned on
		// validation: only clearly smoothed nodes exit early, so accuracy
		// never drops below the fixed-depth ablation (paper's protocol)
		ts := s.DistanceQuantile(1, 0.10)
		for tmax := 2; tmax <= k; tmax++ {
			for _, set := range []NAISetting{
				{Name: "NAI w/o NAP", Mode: core.ModeFixed, TMin: 1, TMax: tmax},
				{Name: "NAI_d", Mode: core.ModeDistance, Ts: ts, TMin: 1, TMax: tmax},
				{Name: "NAI_g", Mode: core.ModeGate, TMin: 1, TMax: tmax},
			} {
				r, err := s.EvalNAI(set.Options())
				if err != nil {
					return err
				}
				t.AddRow(name, fmt.Sprint(tmax), set.Name,
					fmt.Sprintf("%.2f", 100*r.Stats.ACC),
					fmt.Sprintf("%.1f", r.Stats.TimeUS),
					fmt.Sprint(r.NodesPerDepth[1:]))
			}
		}
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

// RunTable8 reproduces Table VIII: the Inception-Distillation ablation,
// evaluated — as in the paper — on the weakest classifier f^{(1)}.
func RunTable8(cfg Config, w io.Writer) error {
	t := metrics.NewTable("Table VIII — Inception Distillation ablation: f^(1) test accuracy (%)",
		"variant", "flickr-like", "arxiv-like", "products-like")
	variants := []struct {
		name string
		mod  func(*core.TrainOptions)
	}{
		{"NAI w/o ID", func(o *core.TrainOptions) { o.DisableDistillation = true }},
		{"NAI w/o MS", func(o *core.TrainOptions) { o.DisableMultiScale = true }},
		{"NAI w/o SS", func(o *core.TrainOptions) { o.DisableSingleScale = true }},
		{"NAI", func(o *core.TrainOptions) {}},
	}
	rows := make(map[string][]string)
	for _, name := range DatasetNames() {
		dcfg, err := cfg.Dataset(name)
		if err != nil {
			return err
		}
		ds, err := synth.Generate(dcfg)
		if err != nil {
			return err
		}
		for _, v := range variants {
			opt := cfg.TrainOptions("sgc")
			v.mod(&opt)
			acc, err := f1Accuracy(ds, opt, cfg.BatchSize)
			if err != nil {
				return err
			}
			rows[v.name] = append(rows[v.name], fmt.Sprintf("%.2f", 100*acc))
		}
	}
	for _, v := range variants {
		t.AddRow(append([]string{v.name}, rows[v.name]...)...)
	}
	fmt.Fprintln(w, t.Render())
	return nil
}
