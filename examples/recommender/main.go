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
	"sort"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/scalable"
	"repro/internal/sparse"
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

	// Tune T_s on validation distances: the balanced operating point uses
	// the median depth-1 distance, the aggressive one its 10th percentile.
	feats := scalable.Propagate(sparse.NormalizedAdjacency(g.Adj, m.Gamma), g.Features, 1)
	st := dep.Stationary() // cached on the deployment, not recomputed
	d := mat.RowDistances(feats[1].GatherRows(ds.Split.Val), st.Rows(ds.Split.Val))
	sort.Float64s(d)
	tsAggressive := d[len(d)/10]
	tsBalanced := d[len(d)/2]

	points := []struct {
		name string
		opt  core.InferenceOptions
	}{
		{"vanilla", core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K}},
		{"NAI balanced", core.InferenceOptions{Mode: core.ModeDistance, Ts: tsAggressive, TMin: 1, TMax: m.K}},
		{"NAI speed-first", core.InferenceOptions{Mode: core.ModeDistance, Ts: tsBalanced, TMin: 1, TMax: 2}},
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
