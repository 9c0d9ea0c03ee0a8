package sparse_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// adjacencyBytes is what a CSR's arrays hold, by capacity.
func adjacencyBytes(a *sparse.CSR) int {
	return cap(a.RowPtr)*int(unsafe.Sizeof(0)) + cap(a.Col)*int(unsafe.Sizeof(int32(0))) + cap(a.Val)*int(unsafe.Sizeof(0.0))
}

// TestAdjacencyIsAPattern pins the adjacency's representation: every way a
// graph's CSR is made — FromEdges, AppendEdges, Clone, a synth graph, one read
// back from the text format, one after a delta — stores no values and int32
// columns, 8·(n+1) + 4·nnz bytes; and a pattern reads exactly as the same
// CSR with its ones stored.
func TestAdjacencyIsAPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const n = 40
	var src, dst []int
	for e := 0; e < 120; e++ {
		src, dst = append(src, rng.Intn(n)), append(dst, rng.Intn(n))
	}
	built := sparse.FromEdges(n, src, dst, true)
	grown, _ := built.AppendEdges(n+5, []int{0, 3, n + 4, n + 1}, []int{n + 2, 7, 1, n})

	ds, err := synth.Generate(synth.Tiny(7))
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.WriteGraph(&text, ds.Graph); err != nil {
		t.Fatal(err)
	}
	read, err := graph.ReadGraph(&text)
	if err != nil {
		t.Fatal(err)
	}
	delta := ds.Graph.Clone()
	if _, err := delta.ApplyDelta(graph.Delta{
		Features: mat.New(1, delta.F()), Labels: []int{0}, Src: []int{0, 1}, Dst: []int{delta.N(), 2},
	}); err != nil {
		t.Fatal(err)
	}

	for name, a := range map[string]*sparse.CSR{
		"FromEdges": built, "AppendEdges": grown, "Clone": grown.Clone(),
		"synth": ds.Graph.Adj, "ReadGraph": read.Adj, "ApplyDelta": delta.Adj,
	} {
		if a.Val != nil {
			t.Errorf("%s: adjacency stores %d values", name, len(a.Val))
		}
		if got, want := adjacencyBytes(a), 8*(a.Rows+1)+4*a.NNZ(); got != want {
			t.Errorf("%s: adjacency holds %d bytes, want 8·(n+1) + 4·nnz = %d", name, got, want)
		}
	}

	// The same pattern with its ones stored reads bit for bit the same.
	for name, pat := range map[string]*sparse.CSR{"FromEdges": built, "AppendEdges": grown} {
		ones := pat.Clone()
		ones.Val = make([]float64, ones.NNZ())
		for k := range ones.Val {
			ones.Val[k] = 1
		}
		for i := 0; i < pat.Rows; i++ {
			if !slices.Equal(bitsOf(pat.RowValues(i)), bitsOf(ones.RowValues(i))) {
				t.Fatalf("%s: RowValues(%d) = %v, with ones stored %v", name, i, pat.RowValues(i), ones.RowValues(i))
			}
			for j := -1; j <= pat.Cols; j++ {
				if math.Float64bits(pat.At(i, j)) != math.Float64bits(ones.At(i, j)) {
					t.Fatalf("%s: At(%d, %d) = %v, with ones stored %v", name, i, j, pat.At(i, j), ones.At(i, j))
				}
			}
		}
		if !slices.Equal(bitsOf(pat.Degrees()), bitsOf(ones.Degrees())) {
			t.Fatalf("%s: Degrees differ from the ones-stored CSR's", name)
		}
		for _, gamma := range []float64{sparse.GammaRowStochastic, sparse.GammaSymmetric, sparse.GammaColStochastic, 0.3} {
			p, o := sparse.NormalizedAdjacency(pat, gamma), sparse.NormalizedAdjacency(ones, gamma)
			if !slices.Equal(p.RowPtr, o.RowPtr) || !slices.Equal(p.Col, o.Col) || !slices.Equal(bitsOf(p.Val), bitsOf(o.Val)) {
				t.Fatalf("%s: NormalizedAdjacency at γ=%v differs from the ones-stored CSR's", name, gamma)
			}
		}
		x := mat.Randn(pat.Cols, 3, 1, rng)
		rows := make([]int, pat.Rows)
		for i := range rows {
			rows[i] = i
		}
		po, oo := mat.New(pat.Rows, 3), mat.New(pat.Rows, 3)
		pat.MulDenseRows(rows, x, po)
		ones.MulDenseRows(rows, x, oo)
		if !slices.Equal(bitsOf(po.Data), bitsOf(oo.Data)) {
			t.Fatalf("%s: MulDenseRows differs from the ones-stored CSR's", name)
		}
	}
}

func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}
