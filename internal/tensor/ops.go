package tensor

import (
	"fmt"

	"repro/internal/mat"
)

// Add returns a + b (element-wise).
func Add(a, b *Node) *Node {
	v := mat.Add(a.Value, b.Value)
	return a.tape.newNode(v, func(g *mat.Matrix) {
		a.accumulate(g)
		b.accumulate(g)
	}, a, b)
}

// Sub returns a − b.
func Sub(a, b *Node) *Node {
	v := mat.Sub(a.Value, b.Value)
	return a.tape.newNode(v, func(g *mat.Matrix) {
		a.accumulate(g)
		b.accumulate(mat.Scale(-1, g))
	}, a, b)
}

// Mul returns the Hadamard product a ⊙ b.
func Mul(a, b *Node) *Node {
	v := mat.MulElem(a.Value, b.Value)
	return a.tape.newNode(v, func(g *mat.Matrix) {
		a.accumulate(mat.MulElem(g, b.Value))
		b.accumulate(mat.MulElem(g, a.Value))
	}, a, b)
}

// Scale returns alpha·a for a constant alpha.
func Scale(alpha float64, a *Node) *Node {
	v := mat.Scale(alpha, a.Value)
	return a.tape.newNode(v, func(g *mat.Matrix) {
		a.accumulate(mat.Scale(alpha, g))
	}, a)
}

// AddConst returns a + c for a constant scalar c.
func AddConst(a *Node, c float64) *Node {
	v := mat.Apply(a.Value, func(x float64) float64 { return x + c })
	return a.tape.newNode(v, func(g *mat.Matrix) {
		a.accumulate(g)
	}, a)
}

// MatMul returns a·b.
func MatMul(a, b *Node) *Node {
	v := mat.MatMul(a.Value, b.Value)
	return a.tape.newNode(v, func(g *mat.Matrix) {
		if a.needs {
			a.accumulate(mat.MatMulNT(g, b.Value)) // dA = g·Bᵀ
		}
		if b.needs {
			b.accumulate(mat.MatMulTN(a.Value, g)) // dB = Aᵀ·g
		}
	}, a, b)
}

// AddBias returns a with the 1×c bias row b added to every row.
func AddBias(a, b *Node) *Node {
	if b.Value.Rows != 1 || b.Value.Cols != a.Value.Cols {
		panic(fmt.Sprintf("tensor: AddBias bias %dx%d for input with %d cols",
			b.Value.Rows, b.Value.Cols, a.Value.Cols))
	}
	v := mat.AddRowVec(a.Value, b.Value.Row(0))
	return a.tape.newNode(v, func(g *mat.Matrix) {
		a.accumulate(g)
		if b.needs {
			b.accumulate(mat.FromData(1, g.Cols, g.ColSums()))
		}
	}, a, b)
}

// MulColBroadcast returns diag(s)·a, where s is n×1: row i of a scaled by s_i.
func MulColBroadcast(a, s *Node) *Node {
	if s.Value.Cols != 1 || s.Value.Rows != a.Value.Rows {
		panic(fmt.Sprintf("tensor: MulColBroadcast scale %dx%d for %d rows",
			s.Value.Rows, s.Value.Cols, a.Value.Rows))
	}
	v := mat.MulColVec(a.Value, s.Value.Data)
	return a.tape.newNode(v, func(g *mat.Matrix) {
		if a.needs {
			a.accumulate(mat.MulColVec(g, s.Value.Data))
		}
		if s.needs {
			ds := mat.New(s.Value.Rows, 1)
			for i := 0; i < g.Rows; i++ {
				grow, arow := g.Row(i), a.Value.Row(i)
				var acc float64
				for j, gv := range grow {
					acc += gv * arow[j]
				}
				ds.Data[i] = acc
			}
			s.accumulate(ds)
		}
	}, a, s)
}

// ConcatCols returns [a | b].
func ConcatCols(a, b *Node) *Node {
	v := mat.ConcatCols(a.Value, b.Value)
	ca := a.Value.Cols
	return a.tape.newNode(v, func(g *mat.Matrix) {
		if a.needs {
			a.accumulate(g.SliceCols(0, ca))
		}
		if b.needs {
			b.accumulate(g.SliceCols(ca, g.Cols))
		}
	}, a, b)
}

// ConcatColsN concatenates any number of nodes horizontally.
func ConcatColsN(xs ...*Node) *Node {
	if len(xs) == 0 {
		panic("tensor: ConcatColsN of nothing")
	}
	out := xs[0]
	for _, x := range xs[1:] {
		out = ConcatCols(out, x)
	}
	return out
}

// SliceCols returns columns [lo, hi) of a.
func SliceCols(a *Node, lo, hi int) *Node {
	v := a.Value.SliceCols(lo, hi)
	return a.tape.newNode(v, func(g *mat.Matrix) {
		full := mat.New(a.Value.Rows, a.Value.Cols)
		for i := 0; i < g.Rows; i++ {
			copy(full.Row(i)[lo:hi], g.Row(i))
		}
		a.accumulate(full)
	}, a)
}

// GatherRows returns the rows of a selected by idx (duplicates allowed).
func GatherRows(a *Node, idx []int) *Node {
	v := a.Value.GatherRows(idx)
	idxCopy := append([]int(nil), idx...)
	return a.tape.newNode(v, func(g *mat.Matrix) {
		da := mat.New(a.Value.Rows, a.Value.Cols)
		da.ScatterAddRows(idxCopy, g)
		a.accumulate(da)
	}, a)
}

// SumAll reduces a to a 1×1 scalar node Σ a_ij.
func SumAll(a *Node) *Node {
	v := mat.New(1, 1)
	v.Data[0] = a.Value.Sum()
	return a.tape.newNode(v, func(g *mat.Matrix) {
		da := mat.New(a.Value.Rows, a.Value.Cols)
		da.Fill(g.Data[0])
		a.accumulate(da)
	}, a)
}

// SumSquares returns Σ a_ij² as a scalar node (for L2 regularization).
func SumSquares(a *Node) *Node {
	v := mat.New(1, 1)
	var s float64
	for _, x := range a.Value.Data {
		s += x * x
	}
	v.Data[0] = s
	return a.tape.newNode(v, func(g *mat.Matrix) {
		a.accumulate(mat.Scale(2*g.Data[0], a.Value))
	}, a)
}

// RowSumsNode reduces each row to its sum, returning an n×1 node.
func RowSumsNode(a *Node) *Node {
	v := mat.FromData(a.Value.Rows, 1, a.Value.RowSums())
	return a.tape.newNode(v, func(g *mat.Matrix) {
		da := mat.New(a.Value.Rows, a.Value.Cols)
		for i := 0; i < da.Rows; i++ {
			gi := g.Data[i]
			row := da.Row(i)
			for j := range row {
				row[j] = gi
			}
		}
		a.accumulate(da)
	}, a)
}
