package baselines

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// QuantizedLinear is a symmetric per-tensor INT8 linear layer: weights are
// quantized once at conversion, activations are quantized dynamically per
// batch, accumulation is int32 and the result is dequantized to float with
// the float bias added (the standard dynamic-quantization recipe the paper
// applies to model parameters).
type QuantizedLinear struct {
	Rows, Cols int
	W          []int8
	WScale     float64
	Bias       []float64
}

// NewQuantizedLinear converts a float weight matrix and bias row. The
// quantization recipe (symmetric per-tensor, scale = maxabs/127) lives in
// internal/kernel and is shared with the int8 propagation tier.
func NewQuantizedLinear(w *mat.Matrix, bias []float64) *QuantizedLinear {
	q, scale := kernel.Quantize(w.Data)
	return &QuantizedLinear{
		Rows: w.Rows, Cols: w.Cols, W: q, WScale: scale,
		Bias: append([]float64(nil), bias...),
	}
}

// Forward computes x·W + b with int8×int8→int32 arithmetic.
func (l *QuantizedLinear) Forward(x *mat.Matrix) *mat.Matrix {
	if x.Cols != l.Rows {
		panic("baselines: quantized linear shape mismatch")
	}
	x8, xScale := kernel.Quantize(x.Data)
	out := mat.New(x.Rows, l.Cols)
	deq := xScale * l.WScale
	for i := 0; i < x.Rows; i++ {
		xrow := x8[i*x.Cols : (i+1)*x.Cols]
		orow := out.Row(i)
		for p, xv := range xrow {
			if xv == 0 {
				continue
			}
			wrow := l.W[p*l.Cols : (p+1)*l.Cols]
			for j, wv := range wrow {
				orow[j] += float64(int32(xv) * int32(wv))
			}
		}
		for j := range orow {
			orow[j] = orow[j]*deq + l.Bias[j]
		}
	}
	return out
}

// QuantizedMLP is an MLP with all linear layers quantized to INT8.
type QuantizedMLP struct {
	Layers []*QuantizedLinear
	macs   int
}

// QuantizeMLP converts a trained float MLP.
func QuantizeMLP(m *nn.MLP) *QuantizedMLP {
	q := &QuantizedMLP{macs: m.MACsPerRow()}
	for i := range m.Weights {
		q.Layers = append(q.Layers, NewQuantizedLinear(m.Weights[i].Value, m.Biases[i].Value.Row(0)))
	}
	return q
}

// Logits runs the quantized forward pass (ReLU between layers, as in nn.MLP).
func (q *QuantizedMLP) Logits(x *mat.Matrix) *mat.Matrix {
	h := x
	for i, l := range q.Layers {
		h = l.Forward(h)
		if i < len(q.Layers)-1 {
			h = mat.ReLU(h)
		}
	}
	return h
}

// Predict returns argmax classes.
func (q *QuantizedMLP) Predict(x *mat.Matrix) []int { return q.Logits(x).ArgmaxRows() }

// MACsPerRow matches the float classifier: quantization changes operand
// width, not operation count (the paper reports identical MACs).
func (q *QuantizedMLP) MACsPerRow() int { return q.macs }

// Quantized is the Quantization baseline: the vanilla Scalable-GNN
// inference pipeline with the deepest classifier converted to INT8. Feature
// propagation is untouched, which is why the paper finds its acceleration
// marginal — propagation dominates the runtime.
type Quantized struct {
	Teacher *core.Model
	Clf     *QuantizedMLP
}

// NewQuantized converts the teacher's depth-K classifier.
func NewQuantized(teacher *core.Model) *Quantized {
	return &Quantized{Teacher: teacher, Clf: QuantizeMLP(teacher.Classifiers[teacher.K])}
}

// Infer runs fixed-depth inductive inference with the INT8 classifier.
func (m *Quantized) Infer(g *graph.Graph, targets []int, batchSize int) *core.Result {
	adj := sparse.NewNormalized(g.Adj, m.Teacher.Gamma)
	k := m.Teacher.K
	return fixedDepthInfer(g, adj, k, targets, batchSize, func(stack []*mat.Matrix) ([]int, int) {
		input := m.Teacher.Combiner.Combine(stack, k)
		return m.Clf.Predict(input), stack[0].Rows * m.Clf.MACsPerRow()
	})
}
