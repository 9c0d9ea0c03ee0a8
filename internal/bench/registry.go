package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Experiment is a registered table/figure regenerator.
type Experiment struct {
	Name        string
	Description string
	Run         func(Config, io.Writer) error
}

// experiments lists every registered experiment in paper order: the order
// "all" runs them in.
var experiments = []Experiment{
	{"table1", "complexity formulas + measured MAC cross-check", RunTable1},
	{"table2", "dataset properties", RunTable2},
	{"config", "hyper-parameter tables (III/IV)", RunConfigTables},
	{"table5", "main inference comparison under SGC", RunTable5},
	{"table6", "node-depth distributions", RunTable6},
	{"table7", "NAP ablation under different T_max", RunTable7},
	{"table8", "Inception Distillation ablation", RunTable8},
	{"table9", "generalization: SIGN", RunTable9},
	{"table10", "generalization: S2GC", RunTable10},
	{"table11", "generalization: GAMLP", RunTable11},
	{"fig4", "accuracy vs latency trade-off", RunFigure4},
	{"fig5", "batch-size study", RunFigure5},
	{"fig6", "hyper-parameter sensitivity", RunFigure6},
}

// Experiments lists all registered experiments sorted by name.
func Experiments() []Experiment {
	out := slices.Clone(experiments)
	slices.SortFunc(out, func(a, b Experiment) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// ExperimentOrder is the presentation order used by "all".
func ExperimentOrder() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// Run executes one experiment by name, or every experiment for "all".
func Run(name string, cfg Config, w io.Writer) error {
	if name == "all" {
		for _, e := range experiments {
			fmt.Fprintf(w, "=== %s ===\n", e.Name)
			if err := e.Run(cfg, w); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		return nil
	}
	i := slices.IndexFunc(experiments, func(e Experiment) bool { return e.Name == name })
	if i < 0 {
		return fmt.Errorf("bench: unknown experiment %q (try: all, %v)", name, ExperimentOrder())
	}
	return experiments[i].Run(cfg, w)
}
