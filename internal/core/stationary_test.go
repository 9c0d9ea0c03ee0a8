package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/scalable"
	"repro/internal/sparse"
)

func randomAdj(n int, p float64, rng *rand.Rand) *sparse.CSR {
	var src, dst []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				src = append(src, i)
				dst = append(dst, j)
			}
		}
	}
	return sparse.FromEdges(n, src, dst, true)
}

func TestStationaryMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj := randomAdj(20, 0.2, rng)
	x := mat.Randn(20, 5, 1, rng)
	for _, gamma := range []float64{0, 0.5, 1} {
		st := ComputeStationary(adj, x, gamma)
		got := st.Full()
		want := DenseStationaryReference(adj, x, gamma)
		if !mat.ApproxEqual(got, want, 1e-9) {
			t.Fatalf("gamma=%v: rank-1 stationary differs from dense reference", gamma)
		}
	}
}

func TestStationaryIsFixpoint(t *testing.T) {
	// Â·X(∞) = X(∞): the stationary state is invariant under propagation.
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		adj := randomAdj(15, 0.25, r)
		x := mat.Randn(15, 4, 1, rng)
		for _, gamma := range []float64{0, 0.5, 1} {
			st := ComputeStationary(adj, x, gamma)
			xinf := st.Full()
			norm := sparse.NewNormalized(adj, gamma)
			if !mat.ApproxEqual(scalable.Propagate(norm, xinf, 1)[1], xinf, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStationaryIsPropagationLimit(t *testing.T) {
	// Propagating many times converges to X(∞) on a connected graph.
	rng := rand.New(rand.NewSource(3))
	// ring of 12 nodes + chords: connected and aperiodic (self-loops added
	// by normalization guarantee aperiodicity)
	src := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 3}
	dst := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 6, 9}
	adj := sparse.FromEdges(12, src, dst, true)
	x := mat.Randn(12, 3, 1, rng)
	norm := sparse.NewNormalized(adj, sparse.GammaSymmetric)
	prop := scalable.Propagate(norm, x, 400)[400]
	st := ComputeStationary(adj, x, sparse.GammaSymmetric)
	if !mat.ApproxEqual(prop, st.Full(), 1e-6) {
		t.Fatal("propagation limit differs from closed-form stationary state")
	}
}

func TestStationaryRowConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	adj := randomAdj(10, 0.3, rng)
	x := mat.Randn(10, 4, 1, rng)
	st := ComputeStationary(adj, x, 0.5)
	rows := st.Rows([]int{3, 7})
	buf := make([]float64, 4)
	for k, i := range []int{3, 7} {
		st.Row(i, buf)
		for c := range buf {
			if buf[c] != rows.At(k, c) {
				t.Fatal("Row and Rows disagree")
			}
		}
	}
}

func TestStationaryMACCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	adj := randomAdj(10, 0.3, rng)
	x := mat.Randn(10, 4, 1, rng)
	st := ComputeStationary(adj, x, 0.5)
	if st.SumMACs != 10*4 {
		t.Fatalf("SumMACs = %d", st.SumMACs)
	}
	if st.RowMACs() != 4 {
		t.Fatalf("RowMACs = %d", st.RowMACs())
	}
}

func TestStationaryDegreeMonotone(t *testing.T) {
	// For γ=0.5, higher-degree nodes have larger-magnitude stationary rows
	// ((d+1)^γ scaling), the mechanism behind the paper's observation that
	// high-degree nodes smooth faster.
	rng := rand.New(rand.NewSource(6))
	// star: node 0 has degree 5, leaves degree 1
	adj := sparse.FromEdges(6, []int{0, 0, 0, 0, 0}, []int{1, 2, 3, 4, 5}, true)
	x := mat.Randn(6, 3, 1, rng)
	st := ComputeStationary(adj, x, 0.5)
	full := st.Full()
	hub := norm2(full.Row(0))
	leaf := norm2(full.Row(1))
	if hub <= leaf {
		t.Fatalf("hub stationary norm %v should exceed leaf %v", hub, leaf)
	}
}

func TestSecondEigenvalueBelowOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj := randomAdj(30, 0.2, rng)
	l2 := SecondEigenvalueSymmetric(adj, 200)
	if l2 <= 0 || l2 >= 1 {
		t.Fatalf("λ₂ = %v outside (0,1)", l2)
	}
}

func TestSecondEigenvalueDensityOrdering(t *testing.T) {
	// Denser graphs mix faster: λ₂ should be smaller.
	rng := rand.New(rand.NewSource(8))
	sparse_ := randomAdj(40, 0.05, rng)
	dense := randomAdj(40, 0.5, rng)
	if SecondEigenvalueSymmetric(dense, 300) >= SecondEigenvalueSymmetric(sparse_, 300) {
		t.Fatal("λ₂ ordering violated for density")
	}
}

func TestDepthUpperBound(t *testing.T) {
	// Bound decreases with degree (first term of Eq. 10).
	lo := DepthUpperBound(0.1, 2, 1000, 0.9)
	hi := DepthUpperBound(0.1, 50, 1000, 0.9)
	if hi >= lo {
		t.Fatalf("bound should shrink with degree: d=2 → %v, d=50 → %v", lo, hi)
	}
	// vacuous cases
	if !math.IsInf(DepthUpperBound(0, 2, 1000, 0.9), 1) {
		t.Fatal("Ts=0 should be vacuous")
	}
	if !math.IsInf(DepthUpperBound(0.1, 2, 1000, 1.0), 1) {
		t.Fatal("λ₂=1 should be vacuous")
	}
	if DepthUpperBound(100, 999, 1000, 0.9) != 0 {
		t.Fatal("arg ≥ 1 should give bound 0")
	}
}

func norm2(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v * v
	}
	return math.Sqrt(s)
}

// TestStationaryUpdateRobustDeltas pins Stationary.Update on the two delta
// shapes most likely to trip the incremental path: an appended node with no
// edges (its block must still re-accumulate and the scale must absorb the
// grown node count) and a delta whose edge list repeated an edge (the
// dirty rows arrive deduplicated, and re-accumulating a block twice would
// still be idempotent). Both must stay bitwise equal to a from-scratch
// ComputeStationary on the merged graph.
func TestStationaryUpdateRobustDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n, f := 300, 5 // spans two 256-node blocks once a node is appended
	adj := randomAdj(n, 0.02, rng)
	x := mat.Randn(n, f, 1, rng)
	st := ComputeStationary(adj, x, 0.5)

	requireSame := func(tag string, adj *sparse.CSR, x *mat.Matrix) {
		t.Helper()
		want := ComputeStationary(adj, x, 0.5)
		if st.Scale != want.Scale || st.SumMACs != want.SumMACs {
			t.Fatalf("%s: scalars differ: scale %v vs %v", tag, st.Scale, want.Scale)
		}
		for c := range want.WeightedSum {
			if st.WeightedSum[c] != want.WeightedSum[c] {
				t.Fatalf("%s: weighted sum column %d: %v != %v", tag, c, st.WeightedSum[c], want.WeightedSum[c])
			}
		}
		requireSameStationaryRows(t, tag+": ", want, st, adj.Rows)
	}

	// Isolated appended node: adjacency grows by an empty row.
	grown, dirty := adj.AppendEdges(n+1, nil, nil)
	if len(dirty) != 0 {
		t.Fatalf("empty append dirtied %v", dirty)
	}
	x2 := x.Clone()
	x2.AppendRows(mat.Randn(1, f, 1, rng))
	st.Update(grown, x2, []int{n}) // the appended node is always reported dirty
	requireSame("isolated node", grown, x2)

	// A repeated new edge: ApplyDelta's dirty report names each endpoint
	// once; Update must land on the same bits as a fresh compute.
	grown2, dirty2 := grown.AppendEdges(n+1, []int{3, 3, n}, []int{n, n, 3})
	if len(dirty2) != 2 || dirty2[0] != 3 || dirty2[1] != n {
		t.Fatalf("repeated-edge dirty %v, want [3 %d]", dirty2, n)
	}
	st.Update(grown2, x2, dirty2)
	requireSame("repeated edge", grown2, x2)
}

// requireSameStationaryRows fails unless got's X(∞) row of each of the n
// nodes has want's bits: every factor (d_i+1)^γ a row is scaled by, and the
// weighted sum they share.
func requireSameStationaryRows(t *testing.T, tag string, want, got *Stationary, n int) {
	t.Helper()
	f := len(want.WeightedSum)
	w, g := make([]float64, f), make([]float64, f)
	for i := 0; i < n; i++ {
		want.Row(i, w)
		got.Row(i, g)
		for c := range w {
			if math.Float64bits(w[c]) != math.Float64bits(g[c]) {
				t.Fatalf("%sX(∞) row %d column %d: %v, want %v", tag, i, c, g[c], w[c])
			}
		}
	}
}
