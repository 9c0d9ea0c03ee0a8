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
