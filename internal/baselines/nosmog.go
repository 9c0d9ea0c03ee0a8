package baselines

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/scalable"
	"repro/internal/sparse"
)

// NOSMOG extends GLNN with explicit structural position features
// (Tian et al., ICLR 2023). The paper uses DeepWalk embeddings aggregated
// from observed neighbors at inference time; as a stdlib-only substitution
// we use anchor-diffusion position features — the probability that an
// L-step random walk from the node lands on each of d high-degree anchor
// nodes — which injects the same kind of topology signal with the same
// O(deg·d) inference-time aggregation cost.
type NOSMOG struct {
	Student *nn.MLP
	// Anchors are global node ids of the training graph's anchor set.
	Anchors []int
	// WalkLen is the diffusion length L.
	WalkLen int
	// NoiseStd is the adversarial-ish feature-augmentation noise used in
	// training (NOSMOG's robustness component, simplified to Gaussian
	// input noise).
	NoiseStd float64
}

// NOSMOGConfig controls NOSMOG training.
type NOSMOGConfig struct {
	Hidden      []int
	Dropout     float64
	Epochs      int
	LR          float64
	Temperature float64
	Lambda      float64
	Patience    int
	// PosDim is the number of anchors (position-feature dimension).
	PosDim  int
	WalkLen int
	// NoiseStd adds Gaussian noise to student inputs during training.
	NoiseStd float64
	Seed     int64
}

// DefaultNOSMOGConfig mirrors the paper's NOSMOG settings at our scale.
func DefaultNOSMOGConfig() NOSMOGConfig {
	return NOSMOGConfig{Hidden: []int{128}, Dropout: 0.1, Epochs: 150, LR: 0.01,
		Temperature: 1.5, Lambda: 0.7, Patience: 25, PosDim: 16, WalkLen: 4,
		NoiseStd: 0.05, Seed: 1}
}

// PositionFeatures computes the anchor-diffusion embedding for every node
// of the graph: P = M^L · E where M is the row-stochastic adjacency and E
// the one-hot anchor indicator matrix.
func PositionFeatures(adj *sparse.CSR, anchors []int, walkLen int) *mat.Matrix {
	e := mat.New(adj.Rows, len(anchors))
	for j, a := range anchors {
		e.Set(a, j, 1)
	}
	m := sparse.NewNormalized(adj, sparse.GammaRowStochastic, sparse.LoopedDegrees(adj))
	return scalable.Propagate(m, e, walkLen)[walkLen]
}

// topDegreeAnchors picks the d highest-degree nodes as anchors.
func topDegreeAnchors(adj *sparse.CSR, d int) []int {
	type nd struct {
		node int
		deg  float64
	}
	all := make([]nd, adj.Rows)
	degs := adj.Degrees()
	for i := range all {
		all[i] = nd{i, degs[i]}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].deg != all[b].deg {
			return all[a].deg > all[b].deg
		}
		return all[a].node < all[b].node
	})
	if d > len(all) {
		d = len(all)
	}
	out := make([]int, d)
	for i := 0; i < d; i++ {
		out[i] = all[i].node
	}
	sort.Ints(out)
	return out
}

// TrainNOSMOG fits the position-augmented student on the training graph.
func TrainNOSMOG(td *TeacherData, cfg NOSMOGConfig) *NOSMOG {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tg := td.Ind.Graph
	anchorsLocal := topDegreeAnchors(tg.Adj, cfg.PosDim)
	pos := PositionFeatures(tg.Adj, anchorsLocal, cfg.WalkLen)
	inputs := mat.ConcatCols(tg.Features, pos)
	if cfg.NoiseStd > 0 {
		inputs = mat.Add(inputs, mat.Randn(inputs.Rows, inputs.Cols, cfg.NoiseStd, rng))
	}
	student := nn.NewMLP("nosmog", inputs.Cols, cfg.Hidden, tg.NumClasses, cfg.Dropout, rng)
	trainDistilledMLP(student, inputs, td, cfg.Epochs, cfg.LR, cfg.Temperature,
		cfg.Lambda, cfg.Patience, rng)

	// anchors back in global ids for serving
	anchors := make([]int, len(anchorsLocal))
	for i, a := range anchorsLocal {
		anchors[i] = td.Ind.ToGlobal[a]
	}
	return &NOSMOG{Student: student, Anchors: anchors, WalkLen: cfg.WalkLen, NoiseStd: cfg.NoiseStd}
}

// Infer classifies targets: position features for unseen nodes are
// aggregated from 1-hop neighbors' precomputed embeddings by matrix
// multiplication (the paper's re-implementation of NOSMOG's aggregation),
// which is the FP cost of this baseline.
func (m *NOSMOG) Infer(g *graph.Graph, targets []int, batchSize int) *Result {
	agg := &Result{}
	if batchSize <= 0 {
		batchSize = len(targets)
	}
	if len(targets) == 0 {
		return agg
	}
	// Deployment-time index: full-graph position table (computed once, like
	// NOSMOG's stored DeepWalk table; not charged per batch).
	posTable := PositionFeatures(g.Adj, m.Anchors, m.WalkLen)
	norm := sparse.NewNormalized(g.Adj, sparse.GammaRowStochastic, sparse.LoopedDegrees(g.Adj))
	d := len(m.Anchors)
	for _, batch := range graph.Batches(targets, batchSize) {
		start := time.Now()
		// 1-hop aggregation of neighbor position rows. The product
		// requires duplicate-free rows (it writes them in parallel), and
		// batch comes verbatim from the caller — dedupe defensively.
		fpStart := time.Now()
		posAgg := mat.New(g.N(), d)
		rows := dedupRows(batch)
		fpMACs := sparse.MulNormalizedRowsInto(norm, rows, rows, nil, posTable.Data, nil, d, posAgg.Data)
		fpTime := time.Since(fpStart)
		x := mat.ConcatCols(g.Features.GatherRows(batch), posAgg.GatherRows(batch))
		pred := m.Student.Predict(x)
		res := &Result{Pred: pred, NumTargets: len(batch), FPTime: fpTime}
		res.MACs.Propagation = fpMACs
		res.MACs.Classification = len(batch) * m.Student.MACsPerRow()
		res.TotalTime = time.Since(start)
		agg.merge(res)
	}
	return agg
}

// dedupRows returns a sorted duplicate-free copy of rows (returns rows
// itself when already sorted and unique, the common case).
func dedupRows(rows []int) []int {
	if sort.IntsAreSorted(rows) {
		unique := true
		for i := 1; i < len(rows); i++ {
			if rows[i] == rows[i-1] {
				unique = false
				break
			}
		}
		if unique {
			return rows
		}
	}
	out := append([]int(nil), rows...)
	sort.Ints(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
