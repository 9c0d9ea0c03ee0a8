// Latency tuning: §III-A3 of the paper says users should choose NAI's
// hyper-parameters (T_s, T_min, T_max) on the validation set to meet their
// latency constraint at the highest accuracy. This example sweeps the knob
// grid, prints the accuracy–latency frontier, and picks the best operating
// point under a budget — the workflow a deployment engineer would follow.
//
//	go run ./examples/latencytuning
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synth"
)

const budgetUSPerNode = 20.0

func main() {
	cfg := synth.ArxivLike(5)
	cfg.N = 1500
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
	opt.GateEpochs = 30
	fmt.Println("training NAI ...")
	m, err := core.Train(g, ds.Split, opt)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := core.NewDeployment(m, g)
	if err != nil {
		log.Fatal(err)
	}

	// validation distance quantiles → candidate thresholds
	quantile := func(q float64) float64 {
		ts, err := dep.DistanceQuantile(ds.Split.Val, 1, q)
		if err != nil {
			log.Fatal(err)
		}
		return ts
	}

	type point struct {
		name    string
		opt     core.InferenceOptions
		valAcc  float64
		valTime float64
	}
	var candidates []point
	for _, q := range []float64{0.1, 0.3, 0.6} {
		for tmax := 2; tmax <= m.K; tmax++ {
			candidates = append(candidates, point{
				name: fmt.Sprintf("distance q=%.1f Tmax=%d", q, tmax),
				opt: core.InferenceOptions{Mode: core.ModeDistance,
					Ts: quantile(q), TMin: 1, TMax: tmax, BatchSize: 50},
			})
		}
	}
	for tmax := 2; tmax <= m.K; tmax++ {
		candidates = append(candidates, point{
			name: fmt.Sprintf("gate Tmax=%d", tmax),
			opt:  core.InferenceOptions{Mode: core.ModeGate, TMin: 1, TMax: tmax, BatchSize: 50},
		})
	}

	// Evaluate every candidate on the VALIDATION set (never the test set).
	for i := range candidates {
		res, err := dep.Infer(ds.Split.Val, candidates[i].opt)
		if err != nil {
			log.Fatal(err)
		}
		candidates[i].valAcc = metrics.Accuracy(res.Pred, g.Labels, ds.Split.Val)
		candidates[i].valTime = float64(res.TotalTime.Microseconds()) / float64(res.NumTargets)
	}

	table := metrics.NewTable("validation frontier (budget: 20 us/node)",
		"operating point", "val ACC (%)", "val us/node", "feasible")
	best := -1
	for i, c := range candidates {
		ok := c.valTime <= budgetUSPerNode
		if ok && (best < 0 || c.valAcc > candidates[best].valAcc) {
			best = i
		}
		table.AddRow(c.name,
			fmt.Sprintf("%.2f", 100*c.valAcc),
			fmt.Sprintf("%.1f", c.valTime),
			fmt.Sprint(ok))
	}
	fmt.Println(table.Render())
	if best < 0 {
		fmt.Println("no operating point meets the budget; relax it or lower T_max")
		return
	}

	chosen := candidates[best]
	res, err := dep.Infer(ds.Split.Test, chosen.opt)
	if err != nil {
		log.Fatal(err)
	}
	acc := metrics.Accuracy(res.Pred, g.Labels, ds.Split.Test)
	n := float64(res.NumTargets)
	fmt.Printf("selected %q -> test ACC %.2f%% at %.1f us/node (depths %v)\n",
		chosen.name, 100*acc, float64(res.TotalTime.Microseconds())/n, res.NodesPerDepth[1:])
}
