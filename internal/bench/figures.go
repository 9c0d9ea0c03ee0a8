package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synth"
)

// RunFigure4 reproduces Figure 4: the accuracy–inference-time trade-off.
// For each dataset it emits one series point per method: the baselines plus
// the three NAI_d and three NAI_g operating points.
func RunFigure4(cfg Config, w io.Writer) error {
	t := metrics.NewTable("Figure 4 — accuracy vs inference time (per-node us; series points for plotting)",
		"dataset", "method", "ACC", "Time us/node")
	for _, name := range DatasetNames() {
		s, err := GetSuite(cfg, name, "sgc")
		if err != nil {
			return err
		}
		for _, m := range s.methods("SGC", s.settings()...) {
			r, err := s.eval(m)
			if err != nil {
				return err
			}
			t.AddRow(name, m.name,
				fmt.Sprintf("%.2f", 100*r.Stats.ACC),
				fmt.Sprintf("%.1f", r.Stats.TimeUS))
		}
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

// figure5BatchSizes scales the paper's {100, 250, 500, 1000, 2000} sweep to
// the synthetic test-set size.
func figure5BatchSizes(testSize int) []int {
	raw := []int{25, 50, 100, 200, 400}
	var out []int
	for _, b := range raw {
		if b <= testSize {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = []int{testSize}
	}
	return out
}

// RunFigure5 reproduces Figure 5: per-node MACs and inference time as the
// batch size grows (flickr-analog, SGC). The paper's observation to
// reproduce: TinyGNN's cost grows sharply with batch size, GLNN/NOSMOG stay
// flat and tiny, and NAI stays near-flat because stationary-state and
// decision costs amortize.
func RunFigure5(cfg Config, w io.Writer) error {
	s, err := GetSuite(cfg, "flickr-like", "sgc")
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 5 — per-node mMACs and time (us) vs batch size (flickr-like, SGC)",
		"method", "batch", "mMACs/node", "Time us/node")
	sizes := figure5BatchSizes(len(s.DS.Split.Test))
	maxTargets := sizes[len(sizes)-1] * 2
	targets := s.TestSubset(maxTargets)
	for _, m := range s.methods("SGC", s.speedFirst()...) {
		for _, b := range sizes {
			r, err := s.evalOn(m, targets, b)
			if err != nil {
				return err
			}
			t.AddRow(m.name, fmt.Sprint(b),
				fmt.Sprintf("%.3f", r.Stats.MMACs),
				fmt.Sprintf("%.1f", r.Stats.TimeUS))
		}
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

// RunFigure6 reproduces Figure 6: sensitivity of Inception Distillation to
// λ and T (both stages) and to the ensemble size r, measured — as in the
// paper — by the test accuracy of f^{(1)} on the flickr-analog.
func RunFigure6(cfg Config, w io.Writer) error {
	dcfg, err := cfg.Dataset("flickr-like")
	if err != nil {
		return err
	}
	ds, err := synth.Generate(dcfg)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 6 — hyper-parameter sensitivity: f^(1) test accuracy (%) on flickr-like",
		"knob", "value", "ACC")
	addSweep := func(knob string, values []float64, set func(*core.TrainOptions, float64)) error {
		for _, v := range values {
			opt := cfg.TrainOptions("sgc")
			set(&opt, v)
			acc, err := f1Accuracy(ds, opt, cfg.BatchSize)
			if err != nil {
				return err
			}
			t.AddRow(knob, fmt.Sprintf("%g", v), fmt.Sprintf("%.2f", 100*acc))
		}
		return nil
	}
	if err := addSweep("lambda_single", []float64{0.1, 0.5, 0.9},
		func(o *core.TrainOptions, v float64) { o.SingleLambda = v }); err != nil {
		return err
	}
	if err := addSweep("lambda_multi", []float64{0.1, 0.5, 0.9},
		func(o *core.TrainOptions, v float64) { o.MultiLambda = v }); err != nil {
		return err
	}
	if err := addSweep("T_single", []float64{1, 1.5, 2},
		func(o *core.TrainOptions, v float64) { o.SingleT = v }); err != nil {
		return err
	}
	if err := addSweep("T_multi", []float64{1, 1.5, 2},
		func(o *core.TrainOptions, v float64) { o.MultiT = v }); err != nil {
		return err
	}
	rMax := cfg.TrainOptions("sgc").K
	var rs []float64
	for r := 1; r <= rMax && r <= 4; r++ {
		rs = append(rs, float64(r))
	}
	if err := addSweep("r", rs,
		func(o *core.TrainOptions, v float64) { o.EnsembleR = int(v) }); err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

// f1Accuracy trains a model under opt without gates and returns the test
// accuracy of its weakest classifier f^(1), the measure of Table VIII and
// Fig. 6.
func f1Accuracy(ds *synth.Dataset, opt core.TrainOptions, batchSize int) (float64, error) {
	opt.TrainGates = false
	m, err := core.Train(ds.Graph, ds.Split, opt)
	if err != nil {
		return 0, err
	}
	dep, err := core.NewDeployment(m, ds.Graph)
	if err != nil {
		return 0, err
	}
	res, err := dep.Infer(ds.Split.Test, core.InferenceOptions{
		Mode: core.ModeFixed, TMin: 1, TMax: 1, BatchSize: batchSize})
	if err != nil {
		return 0, err
	}
	return metrics.Accuracy(res.Pred, ds.Graph.Labels, ds.Split.Test), nil
}
