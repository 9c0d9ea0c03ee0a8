package sparse_test

// An external test package: the benchmarks' graph comes from internal/synth,
// which imports this one.

import (
	"runtime"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synth"
)

// benchProduct times Â·X over rows of a flickr-like graph through the operator
// — the product training, the baselines and serving all run — once on one
// processor and once at GOMAXPROCS (the par helper reads it per call, so the
// two are identical on single-CPU machines).
func benchProduct(b *testing.B, every int) {
	cfg := synth.FlickrLike(1)
	cfg.N = 2000
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	op := sparse.NewNormalized(g.Adj, sparse.GammaSymmetric)
	var rows []int
	for i := 0; i < g.N(); i += every {
		rows = append(rows, i)
	}
	out := make([]float64, g.N()*g.F())
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sparse.MulNormalizedRowsInto(op, rows, rows, nil, g.Features.Data, nil, g.F(), out)
		}
	}
	b.Run("serial", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run(b)
	})
	b.Run("parallel", run)
}

// BenchmarkSpMM is the full product, every row of Â.
func BenchmarkSpMM(b *testing.B) { benchProduct(b, 1) }

// BenchmarkSpMMRows is the row-subset product over every other row.
func BenchmarkSpMMRows(b *testing.B) { benchProduct(b, 2) }
