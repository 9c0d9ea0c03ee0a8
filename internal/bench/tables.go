package bench

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/synth"
)

// RunTable1 reproduces Table I: the inference computational complexity of
// the four Scalable GNNs, vanilla vs NAI, as formulas plus the measured
// per-node MAC breakdown on the flickr-analog that validates the asymptotics.
func RunTable1(cfg Config, w io.Writer) error {
	t := metrics.NewTable("Table I — inference complexity (n nodes, m edges, f feature dim, k depth, P classifier layers, q avg. NAI depth)",
		"model", "vanilla", "NAI")
	t.AddRow("SGC", "O(kmf + nf^2)", "O(qmf + nf^2 + nf)")
	t.AddRow("SIGN", "O(kmf + kPnf^2)", "O(qmf + qPnf^2 + nf)")
	t.AddRow("S2GC", "O(kmf + knf + nf^2)", "O(qmf + qnf + nf^2 + nf)")
	t.AddRow("GAMLP", "O(kmf + Pnf^2)", "O(qmf + Pnf^2 + nf)")
	fmt.Fprintln(w, t.Render())
	fmt.Fprintln(w, "note: the paper charges O(n^2 f) for the stationary state; the rank-1")
	fmt.Fprintln(w, "identity of Eq. 7 reduces it to O(nf) (see ARCHITECTURE.md), hence the nf terms.")
	fmt.Fprintln(w)

	// measured cross-check on one dataset: propagation must dominate vanilla
	// cost and shrink under NAI
	s, err := GetSuite(cfg, "flickr-like", "sgc")
	if err != nil {
		return err
	}
	van, err := s.EvalVanilla()
	if err != nil {
		return err
	}
	nai, err := s.EvalNAI(s.SettingsDistance()[0].Options())
	if err != nil {
		return err
	}
	mt := metrics.NewTable("Measured per-node mMACs (flickr-like, SGC)",
		"method", "total", "feature-processing", "classification-and-rest")
	mt.AddRowf("vanilla", van.Stats.MMACs, van.Stats.FPMMACs, van.Stats.MMACs-van.Stats.FPMMACs)
	mt.AddRowf("NAI_d", nai.Stats.MMACs, nai.Stats.FPMMACs, nai.Stats.MMACs-nai.Stats.FPMMACs)
	fmt.Fprintln(w, mt.Render())
	return nil
}

// RunTable2 reproduces Table II: dataset properties.
func RunTable2(cfg Config, w io.Writer) error {
	t := metrics.NewTable("Table II — dataset properties (synthetic analogs; see internal/synth)",
		"dataset", "n", "m", "f", "c", "train/val/test")
	for _, name := range DatasetNames() {
		dcfg, err := cfg.Dataset(name)
		if err != nil {
			return err
		}
		ds, err := synth.Generate(dcfg)
		if err != nil {
			return err
		}
		g := ds.Graph
		t.AddRow(name,
			fmt.Sprint(g.N()), fmt.Sprint(g.M()), fmt.Sprint(g.F()), fmt.Sprint(g.NumClasses),
			fmt.Sprintf("%d/%d/%d", len(ds.Split.Train), len(ds.Split.Val), len(ds.Split.Test)))
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

// RunConfigTables reproduces Tables III/IV: the hyper-parameters used per
// dataset and base model.
func RunConfigTables(cfg Config, w io.Writer) error {
	t := metrics.NewTable("Table III/IV — NAI hyper-parameters per base model",
		"model", "k", "lr", "wd", "dropout", "T_single", "l_single", "T_multi", "l_multi", "r")
	for _, model := range []string{"sgc", "sign", "s2gc", "gamlp"} {
		o := cfg.TrainOptions(model)
		t.AddRow(model,
			fmt.Sprint(o.K),
			fmt.Sprintf("%g", o.Base.LR),
			fmt.Sprintf("%g", o.Base.WeightDecay),
			fmt.Sprintf("%g", o.Dropout),
			fmt.Sprintf("%g", o.SingleT),
			fmt.Sprintf("%g", o.SingleLambda),
			fmt.Sprintf("%g", o.MultiT),
			fmt.Sprintf("%g", o.MultiLambda),
			fmt.Sprint(o.EnsembleR))
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

// comparisonRows renders one dataset's comparison block (Table V and
// Tables IX–XI share this layout): vanilla, four baselines and the
// speed-first NAI_d / NAI_g with acceleration ratios against vanilla.
func comparisonRows(s *Suite, t *metrics.Table, dataset string) error {
	var van EvalResult
	for i, m := range s.methods("vanilla", s.speedFirst()...) {
		r, err := s.eval(m)
		if err != nil {
			return err
		}
		if i == 0 {
			van = r
		}
		ratio := func(base, x float64) string {
			if i <= len(baselineNames) { // not an NAI row
				return ""
			}
			return " " + metrics.FormatRatio(metrics.Speedup(base, x))
		}
		t.AddRow(dataset, m.name,
			fmt.Sprintf("%.2f", 100*r.Stats.ACC),
			fmt.Sprintf("%.3f%s", r.Stats.MMACs, ratio(van.Stats.MMACs, r.Stats.MMACs)),
			fmt.Sprintf("%.3f%s", r.Stats.FPMMACs, ratio(van.Stats.FPMMACs, r.Stats.FPMMACs)),
			fmt.Sprintf("%.1f%s", r.Stats.TimeUS, ratio(van.Stats.TimeUS, r.Stats.TimeUS)),
			fmt.Sprintf("%.1f%s", r.Stats.FPTimeUS, ratio(van.Stats.FPTimeUS, r.Stats.FPTimeUS)))
	}
	return nil
}

// RunTable5 reproduces Table V: the main inference comparison under SGC on
// all three datasets (speed-first NAI settings; ratios vs vanilla SGC).
func RunTable5(cfg Config, w io.Writer) error {
	t := metrics.NewTable("Table V — inference comparison under SGC (ACC %, per-node mMACs / FP mMACs / time us / FP time us; (x) = speedup vs vanilla)",
		"dataset", "method", "ACC", "mMACs", "FP mMACs", "Time", "FP Time")
	for _, name := range DatasetNames() {
		s, err := GetSuite(cfg, name, "sgc")
		if err != nil {
			return err
		}
		if err := comparisonRows(s, t, name); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

// runGeneralizationTable implements Tables IX–XI: the comparison block on
// the flickr-analog for another base model.
func runGeneralizationTable(cfg Config, w io.Writer, model, title string) error {
	s, err := GetSuite(cfg, "flickr-like", model)
	if err != nil {
		return err
	}
	t := metrics.NewTable(title,
		"dataset", "method", "ACC", "mMACs", "FP mMACs", "Time", "FP Time")
	if err := comparisonRows(s, t, "flickr-like"); err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

// RunTable9 reproduces Table IX (SIGN base model).
func RunTable9(cfg Config, w io.Writer) error {
	return runGeneralizationTable(cfg, w, "sign",
		"Table IX — inference comparison under SIGN on flickr-like")
}

// RunTable10 reproduces Table X (S²GC base model).
func RunTable10(cfg Config, w io.Writer) error {
	return runGeneralizationTable(cfg, w, "s2gc",
		"Table X — inference comparison under S2GC on flickr-like")
}

// RunTable11 reproduces Table XI (GAMLP base model).
func RunTable11(cfg Config, w io.Writer) error {
	return runGeneralizationTable(cfg, w, "gamlp",
		"Table XI — inference comparison under GAMLP on flickr-like")
}
