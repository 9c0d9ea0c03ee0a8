package core

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Gate is one exit gate of NAP_g (Eq. 11): a linear scorer
// W ∈ R^{2f×2} over the concatenation [X^{(l)}_i ‖ X̂^{(l)}_i]. At
// inference time X̂^{(l)} is the stationary row for every still-active node
// (nodes that already exited are removed from the batch), so the decision
// reduces to comparing the two logits of [X^{(l)}_i ‖ X(∞)_i]·W.
type Gate struct {
	W *nn.Param
}

// NewGate allocates a gate for feature dimension f.
func NewGate(name string, f int, rng *rand.Rand) *Gate {
	return &Gate{W: nn.NewParam(name, mat.Randn(2*f, 2, 0.1, rng))}
}

// Decide evaluates the gate for each row: xl and xinf are |batch|×f, and
// the result is true where the node should exit (first logit wins).
func (g *Gate) Decide(xl, xinf *mat.Matrix) []bool {
	if xl.Rows != xinf.Rows || xl.Cols != xinf.Cols {
		panic("core: gate input shape mismatch")
	}
	logits := mat.MatMul(mat.ConcatCols(xl, xinf), g.W.Value)
	out := make([]bool, xl.Rows)
	for i := range out {
		out[i] = logits.At(i, 0) > logits.At(i, 1)
	}
	return out
}

// MACsPerRow is the gate's per-node decision cost: (2f)×2 products.
func (g *Gate) MACsPerRow() int { return g.W.Value.Rows * g.W.Value.Cols }

// GateTrainConfig controls end-to-end gate training (Fig. 3).
type GateTrainConfig struct {
	Epochs int
	LR     float64
	// Tau is the Gumbel-softmax temperature.
	Tau float64
	// HardGumbel uses straight-through one-hot samples in the recursion
	// instead of soft samples (ablation; soft is the default).
	HardGumbel bool
	Seed       int64
}

// gateMu and gatePhi are µ and φ, the penalty constants of the Θ term, as the
// paper's implementation sets them.
const gateMu, gatePhi = 1000, 1000

// TrainGates trains gates for depths 1..K−1 end-to-end (Fig. 3): the
// recursion of Eqs. 11–12 runs with soft Gumbel samples, the penalty Θ
// discourages re-selection, per-depth selection probabilities follow the
// stick-breaking semantics of the hard recursion, and the cross-entropy of
// the depth-mixed class distribution against the labels trains every gate
// jointly. Classifier parameters stay frozen.
func TrainGates(m *Model, feats []*mat.Matrix, inputs []*mat.Matrix, st *Stationary,
	labels []int, trainIdx []int, cfg GateTrainConfig) []*Gate {

	if m.K < 2 {
		return nil
	}
	if cfg.Tau <= 0 {
		cfg.Tau = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	gates := make([]*Gate, m.K) // index 1..K−1
	f := feats[0].Cols
	for l := 1; l < m.K; l++ {
		gates[l] = NewGate(fmt.Sprintf("gate%d", l), f, rng)
	}

	// Frozen per-depth class distributions over the training rows.
	classProbs := make([]*mat.Matrix, m.K+1)
	for l := 1; l <= m.K; l++ {
		classProbs[l] = mat.SoftmaxRows(m.Classifiers[l].Logits(inputs[l].GatherRows(trainIdx)))
	}
	// Propagated features and the stationary rows over the training rows.
	xl := make([]*mat.Matrix, m.K+1)
	for l := 1; l < m.K; l++ {
		xl[l] = feats[l].GatherRows(trainIdx)
	}
	xinf := st.Rows(trainIdx)
	y := nn.GatherLabels(labels, trainIdx)

	var params []*nn.Param
	for l := 1; l < m.K; l++ {
		params = append(params, gates[l].W)
	}
	nn.Fit(params, nn.TrainConfig{Epochs: cfg.Epochs, LR: cfg.LR}, func(b *nn.Binding) *tensor.Node {
		xinfNode := b.Const(xinf)
		xhat := xinfNode // X̂^{(1)} = X(∞)  (Eq. 11 initialisation)

		// Stick-breaking state: remaining probability mass per node and the
		// penalty accumulator θ^{(l)}_1 of the paper.
		ones := mat.New(len(trainIdx), 1)
		ones.Fill(1)
		remaining := b.Const(ones)
		var theta *tensor.Node // nil means zero

		var mixture *tensor.Node
		for l := 1; l < m.K; l++ {
			xlNode := b.Const(xl[l])
			gateIn := tensor.ConcatCols(xlNode, xhat)
			e := tensor.Softmax(tensor.MatMul(gateIn, b.Node(gates[l].W)))
			// Apply the penalty to the first logit column: GS(e − Θ).
			logits := e
			if theta != nil {
				zero := b.Const(mat.New(len(trainIdx), 1))
				logits = tensor.Sub(e, tensor.ConcatCols(theta, zero))
			}
			mask := tensor.GumbelSoftmax(logits, cfg.Tau, cfg.HardGumbel, rng)
			m1 := tensor.SliceCols(mask, 0, 1)
			m2 := tensor.SliceCols(mask, 1, 2)

			// Selection probability for depth l under the sequential
			// semantics: nodes still unselected pick depth l with mass m1.
			sel := tensor.Mul(remaining, m1)
			remaining = tensor.Mul(remaining, m2)

			// Depth-l class distribution, weighted by the selection mass.
			term := tensor.MulColBroadcast(b.Const(classProbs[l]), sel)
			if mixture == nil {
				mixture = term
			} else {
				mixture = tensor.Add(mixture, term)
			}

			// X̂^{(l+1)} = m1 ⊙ X^{(l)} + m2 ⊙ X̂^{(l)}  (Eq. 12)
			xhat = tensor.Add(
				tensor.MulColBroadcast(xlNode, m1),
				tensor.MulColBroadcast(xhat, m2))

			// θ^{(l+1)}_1 = Σ_{j≤l} µ·σ(φ(m^{(j)}_1 − 0.5))
			pen := tensor.Scale(gateMu, tensor.Sigmoid(tensor.Scale(gatePhi, tensor.AddConst(m1, -0.5))))
			if theta == nil {
				theta = pen
			} else {
				theta = tensor.Add(theta, pen)
			}
		}
		// Unselected mass defaults to the deepest classifier (the paper's
		// "replace X̂^{(k)} = X(∞) with X^{(k)}" rule).
		mixture = tensor.Add(mixture, tensor.MulColBroadcast(b.Const(classProbs[m.K]), remaining))

		return tensor.NLLFromProbs(mixture, y)
	}, nil)
	return gates
}
