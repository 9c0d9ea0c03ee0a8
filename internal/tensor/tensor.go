// Package tensor implements tape-based reverse-mode automatic
// differentiation over dense matrices (internal/mat).
//
// A Tape records every operation in creation order, which is a valid
// topological order, so Backward is a single reverse sweep. Leaves created
// with Tape.Var receive gradients; leaves created with Tape.Const do not.
//
// The engine covers exactly the ops the paper needs: dense affine layers,
// ReLU/sigmoid/dropout, softmax and log-softmax, hard/soft cross-entropy
// (knowledge distillation), row gather/concat/slice for multi-depth
// classifier heads, per-node broadcast products for attention and gating,
// and Gumbel-softmax for the gate-based node-adaptive propagation module.
package tensor

import (
	"fmt"

	"repro/internal/mat"
)

// Node is one vertex of the computation graph. Value is always set;
// grad is allocated lazily during Backward.
type Node struct {
	Value *mat.Matrix

	tape    *Tape
	grad    *mat.Matrix
	back    func(g *mat.Matrix)
	needs   bool // whether any ancestor requires gradients
	isParam bool
}

// Tape records operations for reverse-mode differentiation.
// The zero value is not usable; call NewTape.
type Tape struct {
	nodes []*Node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Var creates a differentiable leaf (a trainable parameter view).
// The matrix is not copied.
func (t *Tape) Var(m *mat.Matrix) *Node {
	n := &Node{Value: m, tape: t, needs: true, isParam: true}
	t.nodes = append(t.nodes, n)
	return n
}

// Const creates a non-differentiable leaf. The matrix is not copied.
func (t *Tape) Const(m *mat.Matrix) *Node {
	n := &Node{Value: m, tape: t}
	t.nodes = append(t.nodes, n)
	return n
}

// newNode appends an interior node computed from parents.
func (t *Tape) newNode(v *mat.Matrix, back func(g *mat.Matrix), parents ...*Node) *Node {
	needs := false
	for _, p := range parents {
		if p.needs {
			needs = true
			break
		}
	}
	n := &Node{Value: v, tape: t, needs: needs}
	if needs {
		n.back = back
	}
	t.nodes = append(t.nodes, n)
	return n
}

// accumulate adds g into the node's gradient buffer.
func (n *Node) accumulate(g *mat.Matrix) {
	if !n.needs {
		return
	}
	if n.grad == nil {
		n.grad = g.Clone()
		return
	}
	n.grad.AddIn(g)
}

// Grad returns the gradient accumulated for this node by the last
// Backward call, or nil if none flowed here.
func (n *Node) Grad() *mat.Matrix { return n.grad }

// Rows returns the number of rows of the node's value.
func (n *Node) Rows() int { return n.Value.Rows }

// Cols returns the number of columns of the node's value.
func (n *Node) Cols() int { return n.Value.Cols }

// Scalar returns the single element of a 1×1 node.
func (n *Node) Scalar() float64 {
	if n.Value.Rows != 1 || n.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: Scalar on %dx%d node", n.Value.Rows, n.Value.Cols))
	}
	return n.Value.Data[0]
}

// Backward runs reverse-mode differentiation from a scalar (1×1) loss node.
// Gradients accumulate in each reachable node; read them with Grad.
func (t *Tape) Backward(loss *Node) {
	if loss.tape != t {
		panic("tensor: Backward on node from another tape")
	}
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward requires scalar loss, got %dx%d", loss.Value.Rows, loss.Value.Cols))
	}
	seed := mat.New(1, 1)
	seed.Data[0] = 1
	loss.accumulate(seed)
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.grad != nil {
			n.back(n.grad)
		}
	}
}

// Len reports the number of recorded nodes (for tests and diagnostics).
func (t *Tape) Len() int { return len(t.nodes) }
