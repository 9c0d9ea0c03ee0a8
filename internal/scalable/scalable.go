// Package scalable implements the Scalable GNN family the paper
// accelerates: SGC, SIGN, S²GC and GAMLP (Eqs. 2–5). All four share the
// linear propagation X^{(l)} = Â X^{(l-1)} and differ only in how the
// per-depth features {X^{(0)}, …, X^{(l)}} are combined into the classifier
// input, captured here by the Combiner interface. Per-depth classifiers on
// top of the combined features live in internal/core.
package scalable

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Propagate returns [X^{(0)}, X^{(1)}, …, X^{(k)}] where X^{(0)} = x and
// X^{(l)} = adj·X^{(l-1)} (the paper's Eq. 2 preprocessing): each hop is one
// operator product over every row, with the serving engine's bits.
func Propagate(adj *sparse.Normalized, x *mat.Matrix, k int) []*mat.Matrix {
	if k < 0 {
		panic("scalable: negative propagation depth")
	}
	n := adj.N()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	out := make([]*mat.Matrix, k+1)
	out[0] = x
	for l := 1; l <= k; l++ {
		out[l] = mat.New(n, x.Cols)
		sparse.MulNormalizedRowsInto(adj, rows, nil, nil, out[l-1].Data, nil, x.Cols, out[l].Data)
	}
	return out
}

// Combiner maps the propagated feature stack at some depth l to the
// classifier input for that depth (model-specific; Eqs. 2–5).
type Combiner interface {
	// Name identifies the base model ("sgc", "sign", "s2gc", "gamlp").
	Name() string
	// InputDim returns the classifier input width at depth l for feature dim f.
	InputDim(l, f int) int
	// Params returns the combiner's trainable parameters for depth l
	// (nil when the combination is parameter-free).
	Params(l int) []*nn.Param
	// Combine builds the classifier input at depth l from feats[0..l]
	// (inference path, plain matrices).
	Combine(feats []*mat.Matrix, l int) *mat.Matrix
	// CombineNode is the autodiff counterpart used during training.
	CombineNode(b *nn.Binding, feats []*tensor.Node, l int) *tensor.Node
	// MACsPerRow counts the per-node combination cost at depth l.
	MACsPerRow(l, f int) int
	// LowestDepth is the lowest depth Combine reads at depth l: it reads
	// feats[LowestDepth(l)..l], and the entries below may be nil.
	LowestDepth(l int) int
}

// NewCombiner constructs the named combiner. GAMLP needs the feature
// dimension, maximum depth and an RNG for its attention parameters.
func NewCombiner(name string, f, k int, rng *rand.Rand) (Combiner, error) {
	switch name {
	case "sgc":
		return SGCCombiner{}, nil
	case "sign":
		return SIGNCombiner{}, nil
	case "s2gc":
		return S2GCCombiner{}, nil
	case "gamlp":
		return NewGAMLPCombiner(f, k, rng), nil
	default:
		return nil, fmt.Errorf("scalable: unknown model %q", name)
	}
}

// --- SGC (Eq. 2): classifier input is X^{(l)} ---

// SGCCombiner selects the deepest propagated feature.
type SGCCombiner struct{}

func (SGCCombiner) Name() string           { return "sgc" }
func (SGCCombiner) InputDim(_, f int) int  { return f }
func (SGCCombiner) Params(int) []*nn.Param { return nil }

func (SGCCombiner) Combine(feats []*mat.Matrix, l int) *mat.Matrix { return feats[l] }

func (SGCCombiner) CombineNode(_ *nn.Binding, feats []*tensor.Node, l int) *tensor.Node {
	return feats[l]
}

func (SGCCombiner) MACsPerRow(_, _ int) int { return 0 }

func (SGCCombiner) LowestDepth(l int) int { return l }

// --- SIGN (Eq. 3): classifier input is [X^{(0)} ‖ … ‖ X^{(l)}] ---
//
// The per-depth linear transforms W^{(l)} of Eq. 3 are folded into the first
// layer of the downstream classifier, which is mathematically equivalent and
// keeps the combiner parameter-free.

// SIGNCombiner concatenates the propagated feature stack.
type SIGNCombiner struct{}

func (SIGNCombiner) Name() string           { return "sign" }
func (SIGNCombiner) InputDim(l, f int) int  { return (l + 1) * f }
func (SIGNCombiner) Params(int) []*nn.Param { return nil }

func (SIGNCombiner) Combine(feats []*mat.Matrix, l int) *mat.Matrix {
	out := feats[0]
	for j := 1; j <= l; j++ {
		out = mat.ConcatCols(out, feats[j])
	}
	return out
}

func (SIGNCombiner) CombineNode(_ *nn.Binding, feats []*tensor.Node, l int) *tensor.Node {
	return tensor.ConcatColsN(feats[:l+1]...)
}

func (SIGNCombiner) MACsPerRow(_, _ int) int { return 0 }

func (SIGNCombiner) LowestDepth(int) int { return 0 }

// --- S²GC (Eq. 4): classifier input is (1/(l+1)) Σ_{j=0..l} X^{(j)} ---

// S2GCCombiner averages the propagated feature stack.
type S2GCCombiner struct{}

func (S2GCCombiner) Name() string           { return "s2gc" }
func (S2GCCombiner) InputDim(_, f int) int  { return f }
func (S2GCCombiner) Params(int) []*nn.Param { return nil }

func (S2GCCombiner) Combine(feats []*mat.Matrix, l int) *mat.Matrix {
	acc := feats[0].Clone()
	for j := 1; j <= l; j++ {
		acc.AddIn(feats[j])
	}
	acc.ScaleIn(1 / float64(l+1))
	return acc
}

func (S2GCCombiner) CombineNode(_ *nn.Binding, feats []*tensor.Node, l int) *tensor.Node {
	acc := feats[0]
	for j := 1; j <= l; j++ {
		acc = tensor.Add(acc, feats[j])
	}
	return tensor.Scale(1/float64(l+1), acc)
}

// MACsPerRow counts the (l+1)·f accumulation (the paper's knf term).
func (S2GCCombiner) MACsPerRow(l, f int) int { return (l + 1) * f }

func (S2GCCombiner) LowestDepth(int) int { return 0 }

// --- GAMLP (Eq. 5): classifier input is Σ_j T^{(j)} X^{(j)} with node-wise
// attention T^{(j)} = diag(w^{(j)}), w from a per-depth trainable score ---

// GAMLPCombiner implements the paper's "basic version of GAMLP which
// utilizes the attention mechanism in feature propagation": per depth j a
// trainable score vector s_j ∈ R^f produces q^{(j)}_i = σ(X^{(j)}_i·s_j),
// softmax over j∈{0..l} yields node-wise weights, and the classifier input
// is the weighted sum of the stack.
type GAMLPCombiner struct {
	Scores []*nn.Param // one f×1 vector per depth 0..k
}

// NewGAMLPCombiner allocates attention vectors for depths 0..k.
func NewGAMLPCombiner(f, k int, rng *rand.Rand) *GAMLPCombiner {
	c := &GAMLPCombiner{}
	for j := 0; j <= k; j++ {
		c.Scores = append(c.Scores,
			nn.NewParam(fmt.Sprintf("gamlp.s%d", j), mat.Randn(f, 1, 0.1, rng)))
	}
	return c
}

func (c *GAMLPCombiner) Name() string          { return "gamlp" }
func (c *GAMLPCombiner) InputDim(_, f int) int { return f }

func (c *GAMLPCombiner) Params(l int) []*nn.Param {
	return append([]*nn.Param(nil), c.Scores[:l+1]...)
}

func (c *GAMLPCombiner) Combine(feats []*mat.Matrix, l int) *mat.Matrix {
	n := feats[0].Rows
	// per-node scores q_j, then softmax over depths
	scores := mat.New(n, l+1)
	for j := 0; j <= l; j++ {
		q := mat.MatVec(feats[j], c.Scores[j].Value.Data)
		for i, v := range q {
			scores.Set(i, j, sigmoid(v))
		}
	}
	w := mat.SoftmaxRows(scores)
	out := mat.New(n, feats[0].Cols)
	for j := 0; j <= l; j++ {
		wj := make([]float64, n)
		for i := 0; i < n; i++ {
			wj[i] = w.At(i, j)
		}
		out.AddIn(mat.MulColVec(feats[j], wj))
	}
	return out
}

func (c *GAMLPCombiner) CombineNode(b *nn.Binding, feats []*tensor.Node, l int) *tensor.Node {
	var qs []*tensor.Node
	for j := 0; j <= l; j++ {
		qs = append(qs, tensor.Sigmoid(tensor.MatMul(feats[j], b.Node(c.Scores[j]))))
	}
	w := tensor.Softmax(tensor.ConcatColsN(qs...))
	var out *tensor.Node
	for j := 0; j <= l; j++ {
		term := tensor.MulColBroadcast(feats[j], tensor.SliceCols(w, j, j+1))
		if out == nil {
			out = term
		} else {
			out = tensor.Add(out, term)
		}
	}
	return out
}

// MACsPerRow counts, per depth in the stack, the score dot product (f) and
// the weighted accumulation (f).
func (c *GAMLPCombiner) MACsPerRow(l, f int) int { return (l + 1) * 2 * f }

func (c *GAMLPCombiner) LowestDepth(int) int { return 0 }

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
