// Sharding: serve a graph through a router over a pool of interchangeable
// whole-graph workers, and check the contract the subsystem is built
// around — sharded answers bit-identical to a single deployment, whichever
// worker answers, before and after online graph growth. The example trains
// a tiny model, compares the two backends target by target with every
// worker answering in turn, commits a delta (a new node, which every worker
// replays from the router's log as the single deployment applies it),
// re-verifies, and finally serves
// the sharded backend through the HTTP daemon. It exits non-zero if any
// answer differs.
//
//	go run ./examples/sharding
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/synth"
)

func main() {
	// 1. A deployed NAI model (see examples/quickstart for this part).
	ds, err := synth.Generate(synth.Tiny(7))
	if err != nil {
		log.Fatal(err)
	}
	topt := core.DefaultTrainOptions()
	topt.K = 3
	topt.Hidden = []int{32}
	m, err := core.Train(ds.Graph, ds.Split, topt)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Two backends over identical graphs: the single deployment every
	// earlier example uses, and a router over 4 workers. Each worker holds
	// the whole graph; the router sends a request whole to one worker, the
	// next up one in round-robin order.
	opt := core.InferenceOptions{Mode: core.ModeGate, TMin: 1, TMax: m.K}
	single, err := core.NewDeployment(m, ds.Graph.Clone())
	if err != nil {
		log.Fatal(err)
	}
	router, err := shard.NewRouter(m, ds.Graph.Clone(), shard.Config{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %d nodes from %d whole-graph workers\n", ds.Graph.N(), router.Shards())

	// 3. The contract: every prediction and personalized depth must match,
	// whichever worker answers. Consecutive requests go to consecutive
	// workers, so asking once per worker hears from each of them.
	verify := func(stage string, targets []int) {
		want, err := single.Infer(targets, opt)
		if err != nil {
			log.Fatal(err)
		}
		for w := 0; w < router.Shards(); w++ {
			got, err := router.Infer(targets, opt)
			if err != nil {
				log.Fatal(err)
			}
			for i := range targets {
				if got.Pred[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
					log.Fatalf("%s: target %d diverged: sharded (%d,%d) vs single (%d,%d)",
						stage, targets[i], got.Pred[i], got.Depths[i], want.Pred[i], want.Depths[i])
				}
			}
		}
		fmt.Printf("%s: %d targets, every worker == single on every prediction and depth\n",
			stage, len(targets))
	}
	verify("initial graph", ds.Split.Test)

	// 4. Online growth: a new node with edges to both ends of the id space.
	// The router applies the delta to its graph and logs it; each worker
	// replays it from the log at its next request.
	n := ds.Graph.N()
	row := make([]float64, ds.Graph.F())
	row[0] = 1
	delta := graph.Delta{
		Features: mat.FromRows([][]float64{row}),
		Labels:   []int{0},
		Src:      []int{n, n},
		Dst:      []int{0, n - 1}, // endpoints from opposite ends of the id space
	}
	if _, err := single.ApplyDelta(delta.Clone()); err != nil {
		log.Fatal(err)
	}
	if _, err := router.ApplyDelta(delta.Clone()); err != nil {
		log.Fatal(err)
	}
	verify("after a delta", append([]int{n}, ds.Split.Test...))

	// 5. The daemon serves the router through the same Backend seam as a
	// single deployment — admission, deltas and stats included.
	srv := serve.NewBackend(router, serve.Config{Opt: opt})
	defer srv.Close()
	preds, depths, err := srv.Classify([]int{n})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon over sharded backend: node %d → class %d at depth %d\n",
		n, preds[0], depths[0])
}
