// Package core implements the paper's contribution: Node-Adaptive
// Inference (NAI) for Scalable GNNs.
//
// It provides the stationary feature state X(∞) (Eqs. 6–7), the two
// node-adaptive propagation modules — distance-based NAP_d (Eqs. 8–10) and
// gate-based NAP_g (Eqs. 11–13) with end-to-end Gumbel-softmax training —
// the batched inductive inference engine of Algorithm 1, and Inception
// Distillation (Eqs. 14–21) for training the per-depth classifiers.
package core

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/scalable"
	"repro/internal/sparse"
)

// Stationary is the rank-1 decomposition of the stationary feature state:
//
//	X(∞)_i = (d_i+1)^γ / (2m+n) · Σ_j (d_j+1)^{1−γ} x_j        (Eqs. 6–7)
//
// The global weighted feature sum Σ_j (d_j+1)^{1−γ} x_j is shared by every
// node, so a batch row costs O(f) instead of the naive O(nf).
type Stationary struct {
	Gamma float64
	// Scale is 1/(2m+n).
	Scale float64
	// WeightedSum is Σ_j (d_j+1)^{1−γ} x_j, length f.
	WeightedSum []float64
	// SumMACs is the multiply-accumulate cost of building WeightedSum
	// (n·f), charged once per batch by the inference engine, mirroring
	// Algorithm 1 line 2 which recomputes X(∞) per batch.
	SumMACs int

	// blockSums[b*f:(b+1)*f] is the partial weighted sum over the nodes of
	// block b ([b·B, min((b+1)·B, n)) for B = stationaryBlock). WeightedSum
	// is always the in-order reduction of these blocks, both on a full
	// compute and after Update — fixing the summation tree is what makes the
	// incremental path bit-identical to a from-scratch one, since floating
	// point addition is not associative.
	blockSums []float64
	// adj is the adjacency the state was computed or last updated against:
	// d_i+1 is its row i's length plus one (looped), the value
	// sparse.LoopedDegrees holds for a pattern, bit for bit.
	adj *sparse.CSR
}

// looped returns d_i+1.
func (s *Stationary) looped(i int) float64 { return float64(s.adj.RowNNZ(i) + 1) }

// stationaryBlock is the node-block width of the two-level weighted-sum
// reduction. Incrementally refreshing one node costs O(B + n/B) feature-row
// additions; B = 256 keeps both terms small across the graph sizes served.
const stationaryBlock = 256

// accumulateBlock recomputes one block's partial sum from scratch. Full and
// incremental computes both funnel through here so their per-block rounding
// is identical.
func (s *Stationary) accumulateBlock(b int, x *mat.Matrix) {
	f := x.Cols
	dst := s.blockSums[b*f : (b+1)*f]
	for c := range dst {
		dst[c] = 0
	}
	hi := (b + 1) * stationaryBlock
	if hi > x.Rows {
		hi = x.Rows
	}
	for j := b * stationaryBlock; j < hi; j++ {
		w := math.Pow(s.looped(j), 1-s.Gamma)
		row := x.Row(j)
		for c, v := range row {
			dst[c] += w * v
		}
	}
}

// reduceBlocks recomputes WeightedSum as the in-order sum of the blocks.
func (s *Stationary) reduceBlocks() {
	f := len(s.WeightedSum)
	for c := range s.WeightedSum {
		s.WeightedSum[c] = 0
	}
	for b := 0; b < len(s.blockSums)/f; b++ {
		src := s.blockSums[b*f : (b+1)*f]
		for c, v := range src {
			s.WeightedSum[c] += v
		}
	}
}

// ComputeStationary builds the stationary state for the raw (un-normalized,
// self-loop-free) adjacency and feature matrix.
func ComputeStationary(adj *sparse.CSR, x *mat.Matrix, gamma float64) *Stationary {
	if adj.Rows != x.Rows {
		panic(fmt.Sprintf("core: %d adjacency rows for %d feature rows", adj.Rows, x.Rows))
	}
	n := adj.Rows
	// 2m + n = total looped degree mass
	denom := float64(adj.NNZ() + n)
	nb := (n + stationaryBlock - 1) / stationaryBlock
	s := &Stationary{
		Gamma:       gamma,
		Scale:       1 / denom,
		WeightedSum: make([]float64, x.Cols),
		SumMACs:     n * x.Cols,
		blockSums:   make([]float64, nb*x.Cols),
		adj:         adj,
	}
	for b := 0; b < nb; b++ {
		s.accumulateBlock(b, x)
	}
	s.reduceBlocks()
	return s
}

// Update incrementally refreshes the stationary state after the serving
// graph gained nodes and/or edges: adj and x are the post-delta adjacency
// and features, and dirty lists (sorted, deduplicated) every node whose
// looped degree changed plus every appended node. Only the blocks containing
// dirty nodes are re-accumulated and the total is re-reduced from the block
// sums, so the cost is O((|dirty| + B + n/B)·f) instead of the full O(n·f) —
// while the result stays bit-identical to ComputeStationary(adj, x, s.Gamma)
// because both paths share the same fixed two-level summation.
func (s *Stationary) Update(adj *sparse.CSR, x *mat.Matrix, dirty []int) {
	if adj.Rows != x.Rows {
		panic(fmt.Sprintf("core: %d adjacency rows for %d feature rows", adj.Rows, x.Rows))
	}
	n, f := adj.Rows, x.Cols
	if n < s.adj.Rows {
		panic(fmt.Sprintf("core: Update shrinks %d nodes to %d", s.adj.Rows, n))
	}
	s.adj = adj
	s.Scale = 1 / float64(adj.NNZ()+n)
	s.SumMACs = n * f

	nb := (n + stationaryBlock - 1) / stationaryBlock
	s.blockSums = mat.Extend(s.blockSums, nb*f-len(s.blockSums)) // a new block holds appended nodes alone
	lastBlock := -1
	for _, j := range dirty {
		if b := j / stationaryBlock; b != lastBlock {
			s.accumulateBlock(b, x)
			lastBlock = b
		}
	}
	s.reduceBlocks()
}

// Row writes X(∞)_i into dst (length f) and returns dst.
func (s *Stationary) Row(i int, dst []float64) []float64 {
	coef := math.Pow(s.looped(i), s.Gamma) * s.Scale
	for c, v := range s.WeightedSum {
		dst[c] = coef * v
	}
	return dst
}

// Rows materializes X(∞) for the given nodes as a |nodes|×f matrix.
func (s *Stationary) Rows(nodes []int) *mat.Matrix {
	out := mat.New(len(nodes), len(s.WeightedSum))
	for k, i := range nodes {
		s.Row(i, out.Row(k))
	}
	return out
}

// Full materializes X(∞) for every node (used by tests and gate training).
func (s *Stationary) Full() *mat.Matrix {
	nodes := make([]int, s.adj.Rows)
	for i := range nodes {
		nodes[i] = i
	}
	return s.Rows(nodes)
}

// RowMACs is the per-row cost of materializing one stationary row
// (one scale per feature).
func (s *Stationary) RowMACs() int { return len(s.WeightedSum) }

// DenseStationaryReference computes X(∞) via the explicit Â(∞) matrix of
// Eq. (7) — the O(n²f) path the paper's complexity table assumes. It exists
// for tests and for the rank-1-vs-dense ablation bench.
func DenseStationaryReference(adj *sparse.CSR, x *mat.Matrix, gamma float64) *mat.Matrix {
	n := adj.Rows
	looped := sparse.LoopedDegrees(adj)
	denom := float64(adj.NNZ() + n)
	out := mat.New(n, x.Cols)
	for i := 0; i < n; i++ {
		dst := out.Row(i)
		for j := 0; j < n; j++ {
			w := math.Pow(looped[i], gamma) * math.Pow(looped[j], 1-gamma) / denom
			src := x.Row(j)
			for c, v := range src {
				dst[c] += w * v
			}
		}
	}
	return out
}

// SecondEigenvalueSymmetric estimates λ₂ of the symmetric normalization
// (γ=0.5) by power iteration with deflation against the known dominant
// eigenvector v1_i ∝ √(d_i+1). λ₂ appears in the paper's personalized-depth
// upper bound (Eq. 10).
func SecondEigenvalueSymmetric(adj *sparse.CSR, iters int) float64 {
	n := adj.Rows
	looped := sparse.LoopedDegrees(adj)
	norm := sparse.NewNormalized(adj, sparse.GammaSymmetric)
	v1 := make([]float64, n)
	var v1norm float64
	for i, d := range looped {
		v1[i] = math.Sqrt(d)
		v1norm += v1[i] * v1[i]
	}
	v1norm = math.Sqrt(v1norm)
	for i := range v1 {
		v1[i] /= v1norm
	}
	// start vector orthogonal to v1
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(float64(i + 1))
	}
	deflate := func(w []float64) {
		var dot float64
		for i := range w {
			dot += w[i] * v1[i]
		}
		for i := range w {
			w[i] -= dot * v1[i]
		}
	}
	deflate(v)
	var lambda float64
	for it := 0; it < iters; it++ {
		w := scalable.Propagate(norm, mat.FromData(n, 1, v), 1)[1].Data
		deflate(w)
		var wn float64
		for _, x := range w {
			wn += x * x
		}
		wn = math.Sqrt(wn)
		if wn == 0 {
			return 0
		}
		lambda = wn
		for i := range w {
			v[i] = w[i] / wn
		}
	}
	return lambda
}

// DepthUpperBound evaluates the first term of the paper's Eq. (10):
// log_{λ₂}(T_s · √((d_i+1)/(2m+n))), the topology-driven cap on node i's
// personalized propagation depth. Returns +Inf when the bound is vacuous.
func DepthUpperBound(ts float64, loopedDeg float64, totalMass float64, lambda2 float64) float64 {
	if ts <= 0 || lambda2 <= 0 || lambda2 >= 1 {
		return math.Inf(1)
	}
	arg := ts * math.Sqrt(loopedDeg/totalMass)
	if arg >= 1 {
		return 0
	}
	return math.Log(arg) / math.Log(lambda2)
}
