package baselines

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// TinyGNN distills a deep GNN into a single-layer GNN whose Peer-Aware
// Module (PAM) runs dot-product self-attention over a fixed-size sample of
// 1-hop peers (Yan et al., KDD 2020). The attention projections make its
// per-node MAC count large on high-dimensional features — the effect the
// paper measures on Flickr — even though only one hop is touched.
type TinyGNN struct {
	Wq, Wk, Wv *nn.Param // f×d attention projections
	Clf        *nn.MLP   // d → classes
	Peers      int       // peers sampled per node (with replacement), incl. self
	AttnDim    int
	SampleSeed int64
}

// TinyGNNConfig controls TinyGNN training.
type TinyGNNConfig struct {
	StudentConfig
	AttnDim int
	Peers   int
}

// DefaultTinyGNNConfig mirrors the paper's TinyGNN settings at our scale.
func DefaultTinyGNNConfig() TinyGNNConfig {
	cfg := TinyGNNConfig{StudentConfig: defaultStudent(), AttnDim: 32, Peers: 5}
	cfg.Hidden, cfg.Epochs = []int{64}, 120
	return cfg
}

// samplePeers draws cfgPeers peers per node from N(i) ∪ {i} with replacement.
func samplePeers(adj *sparse.CSR, nodes []int, peers int, rng *rand.Rand) [][]int {
	out := make([][]int, len(nodes))
	for i, v := range nodes {
		nbrs := adj.RowIndices(v)
		out[i] = make([]int, peers)
		for s := 0; s < peers; s++ {
			k := rng.Intn(len(nbrs) + 1)
			if k == len(nbrs) {
				out[i][s] = v // self
			} else {
				out[i][s] = int(nbrs[k])
			}
		}
	}
	return out
}

// forward builds PAM attention + classifier logits on a tape.
func (m *TinyGNN) forward(b *nn.Binding, features *mat.Matrix, nodes []int,
	peerIdx [][]int, train bool, rng *rand.Rand) *tensor.Node {

	x := b.Const(features)
	q := tensor.MatMul(tensor.GatherRows(x, nodes), b.Node(m.Wq))
	scale := 1 / math.Sqrt(float64(m.AttnDim))
	var scores []*tensor.Node
	vs := make([]*tensor.Node, m.Peers)
	for s := 0; s < m.Peers; s++ {
		idx := make([]int, len(nodes))
		for i := range nodes {
			idx[i] = peerIdx[i][s]
		}
		peer := tensor.GatherRows(x, idx)
		ks := tensor.MatMul(peer, b.Node(m.Wk))
		vs[s] = tensor.MatMul(peer, b.Node(m.Wv))
		scores = append(scores, tensor.Scale(scale, tensor.RowSumsNode(tensor.Mul(q, ks))))
	}
	w := tensor.Softmax(tensor.ConcatColsN(scores...))
	var h *tensor.Node
	for s := 0; s < m.Peers; s++ {
		term := tensor.MulColBroadcast(vs[s], tensor.SliceCols(w, s, s+1))
		if h == nil {
			h = term
		} else {
			h = tensor.Add(h, term)
		}
	}
	return m.Clf.Forward(b, h, train, rng)
}

// attentionEval is the inference-path PAM in plain matrix ops, returning
// the aggregated hidden state for the nodes.
func (m *TinyGNN) attentionEval(features *mat.Matrix, nodes []int, peerIdx [][]int) *mat.Matrix {
	n := len(nodes)
	q := mat.MatMul(features.GatherRows(nodes), m.Wq.Value)
	scale := 1 / math.Sqrt(float64(m.AttnDim))
	scores := mat.New(n, m.Peers)
	vs := make([]*mat.Matrix, m.Peers)
	for s := 0; s < m.Peers; s++ {
		idx := make([]int, n)
		for i := range nodes {
			idx[i] = peerIdx[i][s]
		}
		peer := features.GatherRows(idx)
		ks := mat.MatMul(peer, m.Wk.Value)
		vs[s] = mat.MatMul(peer, m.Wv.Value)
		for i := 0; i < n; i++ {
			var dot float64
			qr, kr := q.Row(i), ks.Row(i)
			for j := range qr {
				dot += qr[j] * kr[j]
			}
			scores.Set(i, s, dot*scale)
		}
	}
	w := mat.SoftmaxRows(scores)
	h := mat.New(n, m.AttnDim)
	for s := 0; s < m.Peers; s++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = w.At(i, s)
		}
		h.AddIn(mat.MulColVec(vs[s], col))
	}
	return h
}

// attentionMACsPerRow is the PAM cost: the query projection, per-peer key
// and value projections, score dot products and the weighted sum.
func (m *TinyGNN) attentionMACsPerRow(f int) int {
	return f*m.AttnDim + m.Peers*(2*f*m.AttnDim+2*m.AttnDim)
}

// TrainTinyGNN distills the teacher into the single-layer PAM model.
func TrainTinyGNN(td *TeacherData, cfg TinyGNNConfig) *TinyGNN {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tg := td.Ind.Graph
	f := tg.F()
	std := math.Sqrt(2 / float64(f))
	// Query/key projections start small so the attention is near-uniform at
	// init (mean aggregation); otherwise the raw feature magnitudes saturate
	// the softmax and gradients vanish.
	qkStd := 0.1 / math.Sqrt(float64(f))
	m := &TinyGNN{
		Wq:         nn.NewParam("tiny.wq", mat.Randn(f, cfg.AttnDim, qkStd, rng)),
		Wk:         nn.NewParam("tiny.wk", mat.Randn(f, cfg.AttnDim, qkStd, rng)),
		Wv:         nn.NewParam("tiny.wv", mat.Randn(f, cfg.AttnDim, std, rng)),
		Clf:        nn.NewMLP("tiny.clf", cfg.AttnDim, cfg.Hidden, tg.NumClasses, cfg.Dropout, rng),
		Peers:      cfg.Peers,
		AttnDim:    cfg.AttnDim,
		SampleSeed: cfg.Seed + 7,
	}
	params := append([]*nn.Param{m.Wq, m.Wk, m.Wv}, m.Clf.Params()...)

	peerTrain := samplePeers(tg.Adj, td.TrainIdx, cfg.Peers, rng)
	peerVal := samplePeers(tg.Adj, td.ValIdx, cfg.Peers, rng)
	td.distill(params, cfg.StudentConfig,
		func(b *nn.Binding) *tensor.Node { return m.forward(b, tg.Features, td.TrainIdx, peerTrain, true, rng) },
		func() []int { return m.Clf.Predict(m.attentionEval(tg.Features, td.ValIdx, peerVal)) })
	return m
}

// Infer classifies targets with one hop of peer attention on the full graph.
func (m *TinyGNN) Infer(g *graph.Graph, targets []int, batchSize int) *core.Result {
	rng := rand.New(rand.NewSource(m.SampleSeed))
	return inferBatches(targets, batchSize, func(batch []int) *core.Result {
		peers := samplePeers(g.Adj, batch, m.Peers, rng)
		res := &core.Result{}
		fpStart := time.Now()
		h := m.attentionEval(g.Features, batch, peers)
		res.FPTime = time.Since(fpStart)
		res.Pred = m.Clf.Predict(h)
		res.MACs.Propagation = len(batch) * m.attentionMACsPerRow(g.F())
		res.MACs.Classification = len(batch) * m.Clf.MACsPerRow()
		return res
	})
}
