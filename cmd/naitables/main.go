// Command naitables regenerates the paper's tables and figures on the
// synthetic dataset analogs and prints them to stdout. It is a reproduction
// tool, not a perf harness: that is benchmark/.
//
// Usage:
//
//	naitables -exp table5           # one experiment
//	naitables -exp all -quick       # everything, small scale
//	naitables -list                 # show available experiments
//
// Flags: -exp (experiment name or "all"), -quick (shrink datasets and
// training), -seed, -runs (timing repetitions, 0 = config default),
// -batch (inference batch size, 0 = config default), -list.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list)")
	quick := flag.Bool("quick", false, "shrink datasets and training for a fast pass")
	seed := flag.Int64("seed", 1, "global random seed")
	runs := flag.Int("runs", 0, "timing repetitions (0 = config default)")
	batch := flag.Int("batch", 0, "inference batch size (0 = config default)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Description)
		}
		fmt.Println("  all      every experiment in paper order")
		return
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *batch > 0 {
		cfg.BatchSize = *batch
	}

	start := time.Now()
	if err := bench.Run(*exp, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "naitables:", err)
		os.Exit(1)
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
}
