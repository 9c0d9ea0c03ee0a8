// Command naiinfer trains (or loads, with -load) an NAI model, deploys it
// against the full serving graph with the cached-state engine, runs batched
// adaptive inference over the unseen test nodes under a chosen operating
// point, and prints accuracy, latency, the per-procedure MAC breakdown and
// the personalized depth distribution — Algorithm 1 as a user would deploy
// it for a one-shot run. For a long-lived HTTP daemon over the same engine
// see cmd/naiserve.
//
// By default -quick shrinks the dataset and training so a run takes
// seconds; pass -quick=false for the full-scale configuration.
//
// Usage:
//
//	naiinfer -dataset arxiv-like -mode distance -ts-quantile 0.3 -tmax 3
//	naiinfer -dataset arxiv-like -mode gate -tmax 5 -batch 100
//	naiinfer -load model.json -dataset flickr-like -mode fixed
//
// Flags: -dataset (flickr-like, arxiv-like, products-like), -model (sgc,
// sign, s2gc, gamlp), -mode (fixed, distance, gate), -ts-quantile (T_s as a
// validation-distance quantile), -tmin/-tmax (depth bounds; -tmax 0 = K),
// -batch, -seed, -quick, -load (serve a previously trained model JSON).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synth"
)

func main() {
	dataset := flag.String("dataset", "flickr-like", "dataset preset")
	model := flag.String("model", "sgc", "base model")
	mode := flag.String("mode", "distance", "NAP mode: fixed, distance, gate")
	tsQuantile := flag.Float64("ts-quantile", 0.3, "distance threshold as a validation-distance quantile (distance mode)")
	tmin := flag.Int("tmin", 1, "minimum propagation depth")
	tmax := flag.Int("tmax", 0, "maximum propagation depth (0 = K)")
	batch := flag.Int("batch", 100, "inference batch size")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", true, "shrink dataset and training")
	load := flag.String("load", "", "load a trained model from this JSON file instead of training")
	flag.Parse()
	napMode, err := core.ParseMode(*mode, *tsQuantile)
	if err != nil {
		fail(err)
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed
	dcfg, err := cfg.Dataset(*dataset)
	if err != nil {
		fail(err)
	}
	ds, err := synth.Generate(dcfg)
	if err != nil {
		fail(err)
	}
	var m *core.Model
	if *load != "" {
		if m, err = core.LoadModelFile(*load); err != nil {
			fail(err)
		}
		fmt.Printf("loaded NAI model (K=%d) from %s\n", m.K, *load)
	} else {
		opt := cfg.TrainOptions(*model)
		fmt.Printf("training NAI (%s, K=%d) on %s ...\n", *model, opt.K, dcfg.Name)
		if m, err = core.Train(ds.Graph, ds.Split, opt); err != nil {
			fail(err)
		}
	}
	dep, err := core.NewDeployment(m, ds.Graph)
	if err != nil {
		fail(err)
	}

	iopt := core.InferenceOptions{Mode: napMode, TMin: *tmin, TMax: m.K, BatchSize: *batch}
	if *tmax > 0 {
		iopt.TMax = *tmax
	}
	if napMode == core.ModeDistance {
		if iopt.Ts, err = dep.DistanceQuantile(ds.Split.Val, 1, *tsQuantile); err != nil {
			fail(err)
		}
		fmt.Printf("tuned T_s = %.4f (validation quantile %.2f)\n", iopt.Ts, *tsQuantile)
	}

	start := time.Now()
	res, err := dep.Infer(ds.Split.Test, iopt)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	acc := metrics.Accuracy(res.Pred, ds.Graph.Labels, ds.Split.Test)
	n := float64(res.NumTargets)
	fmt.Printf("\n%d unseen nodes in %v (%.1f us/node)\n", res.NumTargets,
		elapsed.Round(time.Millisecond), float64(res.TotalTime.Microseconds())/n)
	fmt.Printf("accuracy: %.2f%%\n", 100*acc)
	fmt.Printf("depth distribution (1..K): %v\n", res.NodesPerDepth[1:])
	t := metrics.NewTable("per-node MAC breakdown (mMACs)",
		"stationary", "propagation", "decision", "combine", "classification", "total")
	t.AddRow(
		fmt.Sprintf("%.4f", float64(res.MACs.Stationary)/n/1e6),
		fmt.Sprintf("%.4f", float64(res.MACs.Propagation)/n/1e6),
		fmt.Sprintf("%.4f", float64(res.MACs.Decision)/n/1e6),
		fmt.Sprintf("%.4f", float64(res.MACs.Combine)/n/1e6),
		fmt.Sprintf("%.4f", float64(res.MACs.Classification)/n/1e6),
		fmt.Sprintf("%.4f", float64(res.MACs.Total())/n/1e6))
	fmt.Println(t.Render())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "naiinfer:", err)
	os.Exit(1)
}
