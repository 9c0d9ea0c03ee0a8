package sparse_test

// An external test package: the benchmarks' graph comes from internal/synth,
// which imports this one.

import (
	"runtime"
	"testing"

	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func benchGraph(b *testing.B) (*synth.Dataset, *sparse.CSR) {
	b.Helper()
	cfg := synth.FlickrLike(1)
	cfg.N = 2000
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ds, sparse.NormalizedAdjacency(ds.Graph.Adj, sparse.GammaSymmetric)
}

func BenchmarkSpMM(b *testing.B) {
	ds, adj := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj.MulDense(ds.Graph.Features)
	}
}

// BenchmarkMulDenseRows contrasts the serial and parallel row-subset SpMM
// (nnz-balanced partition; the par helper reads GOMAXPROCS per call, so the
// two are identical on single-CPU machines).
func BenchmarkMulDenseRows(b *testing.B) {
	ds, adj := benchGraph(b)
	targets := make([]int, 0, ds.Graph.N()/2)
	for i := 0; i < ds.Graph.N(); i += 2 {
		targets = append(targets, i)
	}
	out := mat.New(ds.Graph.N(), ds.Graph.F())
	b.Run("serial", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			adj.MulDenseRows(targets, ds.Graph.Features, out)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adj.MulDenseRows(targets, ds.Graph.Features, out)
		}
	})
}
