package tensor

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// CrossEntropyLabels returns the mean cross-entropy between logits and
// integer class labels: −(1/n) Σ_i log softmax(logits_i)[y_i].
func CrossEntropyLabels(logits *Node, labels []int) *Node {
	n := logits.Value.Rows
	if len(labels) != n {
		panic(fmt.Sprintf("tensor: %d labels for %d rows", len(labels), n))
	}
	ls := mat.LogSoftmaxRows(logits.Value)
	var total float64
	for i, y := range labels {
		if y < 0 || y >= logits.Value.Cols {
			panic(fmt.Sprintf("tensor: label %d out of range [0,%d)", y, logits.Value.Cols))
		}
		total -= ls.At(i, y)
	}
	v := mat.New(1, 1)
	v.Data[0] = total / float64(n)
	labelsCopy := append([]int(nil), labels...)
	return logits.tape.newNode(v, func(g *mat.Matrix) {
		// d logits = (softmax − onehot)/n · g
		scale := g.Data[0] / float64(n)
		da := mat.SoftmaxRows(logits.Value)
		for i, y := range labelsCopy {
			da.Set(i, y, da.At(i, y)-1)
		}
		da.ScaleIn(scale)
		logits.accumulate(da)
	}, logits)
}

// SoftCrossEntropy returns the mean cross-entropy between logits (after
// temperature-T softmax) and a fixed target distribution (rows sum to 1):
// −(1/n) Σ_i Σ_c target_ic · log softmax(logits_i / T)[c].
// This is the knowledge-distillation loss of Hinton et al. (2015); the
// caller multiplies by T² per Eq. 17/19 of the paper.
func SoftCrossEntropy(logits *Node, target *mat.Matrix, temperature float64) *Node {
	if temperature <= 0 {
		panic("tensor: temperature must be positive")
	}
	n := logits.Value.Rows
	if target.Rows != n || target.Cols != logits.Value.Cols {
		panic(fmt.Sprintf("tensor: SoftCrossEntropy target %dx%d vs logits %dx%d",
			target.Rows, target.Cols, n, logits.Value.Cols))
	}
	scaled := mat.Scale(1/temperature, logits.Value)
	ls := mat.LogSoftmaxRows(scaled)
	var total float64
	for i := 0; i < n; i++ {
		trow, lrow := target.Row(i), ls.Row(i)
		for c, tv := range trow {
			total -= tv * lrow[c]
		}
	}
	v := mat.New(1, 1)
	v.Data[0] = total / float64(n)
	return logits.tape.newNode(v, func(g *mat.Matrix) {
		// d logits = (softmax(logits/T) − target) / (n·T) · g
		scale := g.Data[0] / (float64(n) * temperature)
		da := mat.SoftmaxRows(scaled)
		da.SubIn(target)
		da.ScaleIn(scale)
		logits.accumulate(da)
	}, logits)
}

// NLLFromProbs returns −(1/n) Σ_i log(probs_i[y_i]) where probs already
// holds probabilities (e.g. a gated mixture of per-depth softmax outputs).
// Probabilities are clamped at eps for numerical safety.
func NLLFromProbs(probs *Node, labels []int) *Node {
	const eps = 1e-12
	n := probs.Value.Rows
	if len(labels) != n {
		panic(fmt.Sprintf("tensor: %d labels for %d rows", len(labels), n))
	}
	var total float64
	for i, y := range labels {
		p := probs.Value.At(i, y)
		if p < eps {
			p = eps
		}
		total -= math.Log(p)
	}
	v := mat.New(1, 1)
	v.Data[0] = total / float64(n)
	labelsCopy := append([]int(nil), labels...)
	return probs.tape.newNode(v, func(g *mat.Matrix) {
		scale := g.Data[0] / float64(n)
		da := mat.New(probs.Value.Rows, probs.Value.Cols)
		for i, y := range labelsCopy {
			p := probs.Value.At(i, y)
			if p < eps {
				p = eps
			}
			da.Set(i, y, -scale/p)
		}
		probs.accumulate(da)
	}, probs)
}
