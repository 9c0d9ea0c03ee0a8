// Recommender sessions: the paper's §I motivates NAI with real-time
// inference on user-item interaction graphs for streaming sessions. This
// example classifies unseen "session" nodes (their category drives the
// recommendation shelf) at several request rates — batch sizes — and shows
// how per-node cost behaves for vanilla inference vs two NAI operating
// points (the paper's Figure 5 phenomenon, as an application).
//
//	go run ./examples/recommender
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synth"
)

func main() {
	cfg := synth.FlickrLike(9)
	cfg.N = 1200
	ds, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph

	opt := core.DefaultTrainOptions()
	opt.K = 4
	opt.Hidden = []int{32}
	opt.Base.Epochs = 80
	opt.DistillEpochs = 60
	opt.TrainGates = false // this example uses the distance module only
	fmt.Println("training NAI on the observed interaction graph ...")
	m, err := core.Train(g, ds.Split, opt)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := core.NewDeployment(m, g)
	if err != nil {
		log.Fatal(err)
	}

	// Tune T_s on validation distances: the balanced operating point keeps
	// the full depth range and lets only the smoothest tenth of sessions
	// (below the 10th-percentile depth-1 distance) exit at depth 1; the
	// speed-first one caps depth at 2 and lets half of them (below the
	// median) exit at 1.
	tsBalanced, err := dep.DistanceQuantile(ds.Split.Val, 1, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	tsSpeed, err := dep.DistanceQuantile(ds.Split.Val, 1, 0.5)
	if err != nil {
		log.Fatal(err)
	}

	points := []struct {
		name string
		opt  core.InferenceOptions
	}{
		{"vanilla", core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}},
		{"NAI balanced", core.InferenceOptions{Mode: core.ModeDistance, Ts: tsBalanced, TMin: 1, TMax: m.K}},
		{"NAI speed-first", core.InferenceOptions{Mode: core.ModeDistance, Ts: tsSpeed, TMin: 1, TMax: 2}},
	}
	table := metrics.NewTable("session classification at varying request rates",
		"operating point", "sessions/batch", "ACC (%)", "us/node", "mMACs/node")
	for _, p := range points {
		for _, batch := range []int{10, 50, 200} {
			o := p.opt
			o.BatchSize = batch
			res, err := dep.Infer(ds.Split.Test, o)
			if err != nil {
				log.Fatal(err)
			}
			acc := metrics.Accuracy(res.Pred, g.Labels, ds.Split.Test)
			n := float64(res.NumTargets)
			table.AddRow(p.name, fmt.Sprint(batch),
				fmt.Sprintf("%.2f", 100*acc),
				fmt.Sprintf("%.1f", float64(res.TotalTime.Microseconds())/n),
				fmt.Sprintf("%.4f", float64(res.MACs.Total())/n/1e6))
		}
	}
	fmt.Println(table.Render())
	fmt.Println("larger batches amortize supporting-node overlap; the NAI points")
	fmt.Println("keep per-session cost low even at small, latency-critical batches.")
}
