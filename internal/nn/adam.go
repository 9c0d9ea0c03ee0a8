package nn

import (
	"math"

	"repro/internal/mat"
)

// Adam implements the Adam optimizer with decoupled weight decay (AdamW):
// weight decay multiplies parameters directly rather than entering the
// moment estimates, which matches how the paper's experiments use
// weight-decay as simple L2 shrinkage.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
}

// NewAdam returns Adam with the conventional defaults (β1=0.9, β2=0.999).
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay}
}

// Step applies one update to every parameter using its current Grad.
// Parameters with nil Grad are only weight-decayed.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if a.WeightDecay != 0 {
			p.Value.ScaleIn(1 - a.LR*a.WeightDecay)
		}
		if p.Grad == nil {
			continue
		}
		if p.m == nil {
			p.m = mat.New(p.Value.Rows, p.Value.Cols)
			p.v = mat.New(p.Value.Rows, p.Value.Cols)
		}
		for i, g := range p.Grad.Data {
			p.m.Data[i] = a.Beta1*p.m.Data[i] + (1-a.Beta1)*g
			p.v.Data[i] = a.Beta2*p.v.Data[i] + (1-a.Beta2)*g*g
			mhat := p.m.Data[i] / bc1
			vhat := p.v.Data[i] / bc2
			p.Value.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
