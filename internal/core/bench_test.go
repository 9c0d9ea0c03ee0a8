package core

import (
	"context"
	"math/rand"
	"sync"
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

// deepWarmFx is BenchmarkInferDeepWarm's and BenchmarkBooks' fixture, built
// once per process (deepWarmFixture) into deepWarm.
type deepWarmFx struct {
	once sync.Once
	dep  *Deployment
	opt  InferenceOptions
	reqs [][]int
	err  error
}

var deepWarm deepWarmFx

// deepWarmFixture builds a deployment of batch_deep's shape and operating
// point and its 64-request stream, and serves the stream once, untimed, so
// that the layer X^(2) and the hub rows of X^(3) are resident.
func deepWarmFixture() (*Deployment, InferenceOptions, [][]int, error) {
	var opt InferenceOptions
	gen := func(n int) (*synth.Dataset, error) {
		cfg := synth.ProductsLike(1)
		cfg.N = n
		return synth.Generate(cfg)
	}
	small, err := gen(2500)
	if err != nil {
		return nil, opt, nil, err
	}
	topt := fastOptions("sgc")
	topt.K = 4
	m, err := Train(small.Graph, small.Split, topt)
	if err != nil {
		return nil, opt, nil, err
	}
	ds, err := gen(100_000)
	if err != nil {
		return nil, opt, nil, err
	}
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		return nil, opt, nil, err
	}
	opt = InferenceOptions{Mode: ModeDistance, Ts: dep.DistanceQuantile(ds.Split.Val, 2, 0.25), TMin: 2, TMax: 4}
	rng := rand.New(rand.NewSource(1))
	reqs := make([][]int, 64)
	for i := range reqs {
		for _, k := range rng.Perm(len(ds.Split.Test))[:64] {
			reqs[i] = append(reqs[i], ds.Split.Test[k])
		}
	}
	for _, req := range reqs {
		if _, err := dep.Infer(req, opt); err != nil {
			return nil, opt, nil, err
		}
	}
	return dep, opt, reqs, nil
}

// BenchmarkInferDeepWarm times one warm request of the benchmark's batch_deep
// shape: 64 distinct test targets at its operating point (NAP_d, TMin 2,
// TMax 4, T_s the lower quartile of the validation nodes' depth-2 distances)
// on a products-like graph of 100 000 nodes, served by a K = 4 model trained
// on a 2 500-node one. The fixture is built and warmed once per process, so
// every timed request is a warm one and a profile shows the requests, not the
// setup; rows-computed/op shows that it stays warm. It times the serving entry,
// InferContext, which keeps no books (BenchmarkBooks times them).
func BenchmarkInferDeepWarm(b *testing.B) {
	fx := deepWarmOnce(b)
	before := fx.dep.Hop1Stats().Computed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.dep.InferContext(context.Background(), fx.reqs[i%len(fx.reqs)], fx.opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fx.dep.Hop1Stats().Computed-before)/float64(b.N), "rows-computed/op")
}

// BenchmarkBooks times Books of one warm BenchmarkInferDeepWarm request's
// answer: the paper's MAC ledger Infer adds to the serving entry — one BFS per
// distinct active set of the batch, out to radius TMax−l.
func BenchmarkBooks(b *testing.B) {
	fx := deepWarmOnce(b)
	depths := make([][]int, len(fx.reqs))
	for i, req := range fx.reqs {
		res, err := fx.dep.InferContext(context.Background(), req, fx.opt)
		if err != nil {
			b.Fatal(err)
		}
		depths[i] = res.Depths
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(fx.reqs)
		if _, err := fx.dep.Books(fx.reqs[k], fx.opt, depths[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// deepWarmOnce returns the deep warm fixture, building it on first use.
func deepWarmOnce(b *testing.B) *deepWarmFx {
	fx := &deepWarm
	fx.once.Do(func() { fx.dep, fx.opt, fx.reqs, fx.err = deepWarmFixture() })
	if fx.err != nil {
		b.Fatal(fx.err)
	}
	return fx
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
