package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// MLP is a multi-layer perceptron classifier: Linear → ReLU → Dropout
// repeated over the hidden sizes, with a final Linear producing logits.
// With no hidden layers it is the linear (logistic-regression) classifier
// SGC uses.
type MLP struct {
	Weights []*Param
	Biases  []*Param
	Dropout float64
	dims    []int // in, hidden..., out
}

// NewMLP builds an MLP with He-initialized weights. hidden may be empty for
// a purely linear classifier.
func NewMLP(name string, in int, hidden []int, out int, dropout float64, rng *rand.Rand) *MLP {
	if in < 1 || out < 1 {
		panic(fmt.Sprintf("nn: bad MLP dims in=%d out=%d", in, out))
	}
	dims := append([]int{in}, hidden...)
	dims = append(dims, out)
	m := &MLP{Dropout: dropout, dims: dims}
	for l := 0; l < len(dims)-1; l++ {
		std := math.Sqrt(2 / float64(dims[l]))
		w := NewParam(fmt.Sprintf("%s.w%d", name, l), mat.Randn(dims[l], dims[l+1], std, rng))
		b := NewParam(fmt.Sprintf("%s.b%d", name, l), mat.New(1, dims[l+1]))
		m.Weights = append(m.Weights, w)
		m.Biases = append(m.Biases, b)
	}
	return m
}

// InputDim returns the expected feature dimension.
func (m *MLP) InputDim() int { return m.dims[0] }

// Params returns all trainable parameters.
func (m *MLP) Params() []*Param {
	out := make([]*Param, 0, 2*len(m.Weights))
	for i := range m.Weights {
		out = append(out, m.Weights[i], m.Biases[i])
	}
	return out
}

// Forward builds the logits node for input x on the binding's tape.
// train enables dropout, which draws from rng.
func (m *MLP) Forward(b *Binding, x *tensor.Node, train bool, rng *rand.Rand) *tensor.Node {
	h := x
	for l := range m.Weights {
		h = tensor.AddBias(tensor.MatMul(h, b.Node(m.Weights[l])), b.Node(m.Biases[l]))
		if l < len(m.Weights)-1 {
			h = tensor.ReLU(h)
			h = tensor.Dropout(h, m.Dropout, train, rng)
		}
	}
	return h
}

// Logits runs inference (no dropout, no gradient bookkeeping needed by the
// caller) and returns raw logits.
func (m *MLP) Logits(x *mat.Matrix) *mat.Matrix {
	h := x
	for l := range m.Weights {
		h = mat.AddRowVec(mat.MatMul(h, m.Weights[l].Value), m.Biases[l].Value.Row(0))
		if l < len(m.Weights)-1 {
			h = mat.ReLU(h)
		}
	}
	return h
}

// Predict runs inference and returns argmax class ids.
func (m *MLP) Predict(x *mat.Matrix) []int { return m.Logits(x).ArgmaxRows() }

// MACsPerRow returns multiply-accumulate operations per input row
// (the classification-cost term of the paper's Table I).
func (m *MLP) MACsPerRow() int {
	total := 0
	for l := 0; l < len(m.dims)-1; l++ {
		total += m.dims[l] * m.dims[l+1]
	}
	return total
}

// FromWeights reconstructs an MLP from serialized weight and bias
// matrices; layer dimensions are derived from the weight shapes.
func FromWeights(name string, weights, biases []*mat.Matrix, dropout float64) (*MLP, error) {
	if len(weights) == 0 || len(weights) != len(biases) {
		return nil, fmt.Errorf("nn: %d weights and %d biases", len(weights), len(biases))
	}
	m := &MLP{Dropout: dropout}
	m.dims = append(m.dims, weights[0].Rows)
	for l, w := range weights {
		if w.Rows != m.dims[l] {
			return nil, fmt.Errorf("nn: layer %d input %d != previous output %d", l, w.Rows, m.dims[l])
		}
		if biases[l].Rows != 1 || biases[l].Cols != w.Cols {
			return nil, fmt.Errorf("nn: layer %d bias %dx%d for width %d",
				l, biases[l].Rows, biases[l].Cols, w.Cols)
		}
		m.dims = append(m.dims, w.Cols)
		m.Weights = append(m.Weights, NewParam(fmt.Sprintf("%s.w%d", name, l), w))
		m.Biases = append(m.Biases, NewParam(fmt.Sprintf("%s.b%d", name, l), biases[l]))
	}
	return m, nil
}

// Clone returns a deep copy with independent parameters (same names).
func (m *MLP) Clone() *MLP {
	out := &MLP{Dropout: m.Dropout, dims: append([]int(nil), m.dims...)}
	for i := range m.Weights {
		out.Weights = append(out.Weights, NewParam(m.Weights[i].Name, m.Weights[i].Value.Clone()))
		out.Biases = append(out.Biases, NewParam(m.Biases[i].Name, m.Biases[i].Value.Clone()))
	}
	return out
}
