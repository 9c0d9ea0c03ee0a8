package core

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/synth"
)

func benchFlickr(b *testing.B) *synth.Dataset {
	b.Helper()
	cfg := synth.FlickrLike(1)
	cfg.N = 2000
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkStationaryRank1 vs BenchmarkStationaryDense is the
// stationary-state ablation: the rank-1 identity of Eq. 7 vs the naive
// O(n²f) path (see ARCHITECTURE.md).
func BenchmarkStationaryRank1(b *testing.B) {
	ds := benchFlickr(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeStationary(ds.Graph.Adj, ds.Graph.Features, 0.5)
	}
}

func BenchmarkStationaryDense(b *testing.B) {
	ds, err := synth.Generate(synth.Tiny(1)) // n² path: keep it small
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DenseStationaryReference(ds.Graph.Adj, ds.Graph.Features, 0.5)
	}
}

func BenchmarkGateDecision(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGate("g", 64, rng)
	xl := mat.Randn(100, 64, 1, rng)
	xinf := mat.Randn(100, 64, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Decide(xl, xinf)
	}
}

func BenchmarkDistanceDecision(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xl := mat.Randn(100, 64, 1, rng)
	xinf := mat.Randn(100, 64, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.RowDistances(xl, xinf)
	}
}

// BenchmarkInferDeepWarm times one warm request of the benchmark's batch_deep
// shape: 64 distinct test targets at its operating point (NAP_d, TMin 2,
// TMax 4, T_s the lower quartile of the validation nodes' depth-2 distances)
// on a products-like graph of 100 000 nodes, served by a K = 4 model trained
// on a 2 500-node one. One untimed pass over the 64-request stream first
// makes the layer X^(2) and the hub rows of X^(3) resident, so every timed
// request is a warm one; rows-computed/op shows that it stays so.
func BenchmarkInferDeepWarm(b *testing.B) {
	gen := func(n int) *synth.Dataset {
		cfg := synth.ProductsLike(1)
		cfg.N = n
		ds, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	small := gen(2500)
	topt := fastOptions("sgc")
	topt.K = 4
	m, err := Train(small.Graph, small.Split, topt)
	if err != nil {
		b.Fatal(err)
	}
	ds := gen(100_000)
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	opt := InferenceOptions{Mode: ModeDistance, Ts: dep.DistanceQuantile(ds.Split.Val, 2, 0.25), TMin: 2, TMax: 4}
	rng := rand.New(rand.NewSource(1))
	reqs := make([][]int, 64)
	for i := range reqs {
		for _, k := range rng.Perm(len(ds.Split.Test))[:64] {
			reqs[i] = append(reqs[i], ds.Split.Test[k])
		}
	}
	for _, req := range reqs {
		if _, err := dep.Infer(req, opt); err != nil {
			b.Fatal(err)
		}
	}
	before := dep.Hop1Stats().Computed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Infer(reqs[i%len(reqs)], opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dep.Hop1Stats().Computed-before)/float64(b.N), "rows-computed/op")
}

// BenchmarkDeploymentRefresh is the once-per-deployment cost of the cached
// serving state (the Â operator's degree factors, the stationary weighted sum
// and the tier's operands) that the seed engine used to pay on every batch.
func BenchmarkDeploymentRefresh(b *testing.B) {
	ds := benchFlickr(b)
	m, err := Train(ds.Graph, ds.Split, fastOptions("sgc"))
	if err != nil {
		b.Fatal(err)
	}
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.Refresh()
	}
}
