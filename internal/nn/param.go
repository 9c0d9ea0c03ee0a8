// Package nn provides the neural-network training substrate: trainable
// parameters, tape bindings, the Adam optimizer with decoupled weight decay,
// multi-layer perceptron classifiers and Fit, the one epoch loop every
// trainer in the repository runs (the classifiers, Inception Distillation,
// the NAP_g gates and the distillation baselines): a loss closure on a fresh
// tape, an Adam step and, given a score closure, early stopping that
// restores the best weights. Everything is built on internal/tensor autodiff.
package nn

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// Param is a trainable matrix with its gradient and Adam state.
type Param struct {
	Name  string
	Value *mat.Matrix
	Grad  *mat.Matrix // set by Binding.CollectGrads; nil means zero

	m, v *mat.Matrix // Adam moments, allocated lazily
}

// NewParam wraps value as a named parameter.
func NewParam(name string, value *mat.Matrix) *Param {
	return &Param{Name: name, Value: value}
}

// Binding ties parameters to leaf nodes on one tape for a single
// forward/backward pass.
type Binding struct {
	Tape  *tensor.Tape
	pairs []bindingPair
	index map[*Param]*tensor.Node
}

type bindingPair struct {
	param *Param
	node  *tensor.Node
}

// Bind starts a fresh binding over a new tape.
func Bind() *Binding {
	return &Binding{Tape: tensor.NewTape(), index: make(map[*Param]*tensor.Node)}
}

// Node returns the tape leaf for p, creating it on first use so that a
// parameter used twice shares one node (and thus accumulates gradients).
func (b *Binding) Node(p *Param) *tensor.Node {
	if n, ok := b.index[p]; ok {
		return n
	}
	n := b.Tape.Var(p.Value)
	b.index[p] = n
	b.pairs = append(b.pairs, bindingPair{p, n})
	return n
}

// Const wraps a constant matrix on the binding's tape.
func (b *Binding) Const(m *mat.Matrix) *tensor.Node { return b.Tape.Const(m) }

// Backward runs backpropagation from loss and copies gradients into the
// bound parameters (zero matrices for parameters the loss does not reach).
func (b *Binding) Backward(loss *tensor.Node) {
	b.Tape.Backward(loss)
	for _, pr := range b.pairs {
		if g := pr.node.Grad(); g != nil {
			pr.param.Grad = g
		} else {
			pr.param.Grad = mat.New(pr.param.Value.Rows, pr.param.Value.Cols)
		}
	}
}

// CheckNames panics if two parameters share a name (guards model wiring).
func CheckNames(params []*Param) {
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if seen[p.Name] {
			panic(fmt.Sprintf("nn: duplicate parameter name %q", p.Name))
		}
		seen[p.Name] = true
	}
}
