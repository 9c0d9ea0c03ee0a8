package sparse

import (
	"fmt"
	"math"
)

// Convolution coefficients from the paper's Eq. (1): γ selects the member
// of the normalization family Â = D̃^{γ−1} Ã D̃^{−γ}.
const (
	// GammaRowStochastic (γ=0) yields D̃^{−1}Ã, the reverse transition
	// probability matrix: every row sums to 1.
	GammaRowStochastic = 0.0
	// GammaSymmetric (γ=0.5) yields D̃^{−1/2}ÃD̃^{−1/2}, the symmetric
	// normalization used by GCN/SGC and by all experiments in the paper.
	GammaSymmetric = 0.5
	// GammaColStochastic (γ=1) yields ÃD̃^{−1}, the transition probability
	// matrix: every column sums to 1.
	GammaColStochastic = 1.0
)

// NormalizedAdjacency adds self-loops to the binary adjacency adj and
// applies Â = D̃^{γ−1} Ã D̃^{−γ} where D̃ is the self-looped degree matrix
// (LoopedDegrees), storing every entry: the reference the tests pin the
// Normalized operator to, and the matrix the benchmark ladder times. adj must
// be square.
func NormalizedAdjacency(adj *CSR, gamma float64) *CSR {
	if adj.Rows != adj.Cols {
		panic("sparse: NormalizedAdjacency requires a square matrix")
	}
	if gamma < 0 || gamma > 1 {
		panic(fmt.Sprintf("sparse: gamma %v outside [0,1]", gamma))
	}
	looped := LoopedDegrees(adj)
	loop := adj.AddSelfLoops()
	left := make([]float64, adj.Rows)  // d̃^{γ−1}
	right := make([]float64, adj.Rows) // d̃^{−γ}
	for i, d := range looped {
		left[i] = math.Pow(d, gamma-1)
		right[i] = math.Pow(d, -gamma)
	}
	// loop is a fresh copy: Â takes its pattern, with values in place of its own.
	vals := make([]float64, loop.NNZ())
	for i := 0; i < loop.Rows; i++ {
		li := left[i]
		for p := loop.RowPtr[i]; p < loop.RowPtr[i+1]; p++ {
			vals[p] = li * loop.val(p) * right[loop.Col[p]]
		}
	}
	loop.Val = vals
	return loop
}

// LoopedDegrees returns d_i + 1 for the binary adjacency adj (degrees after
// adding self-loops): the degrees NormalizedAdjacency normalizes by, and the
// tests' reference for the ones the operator and the stationary state read
// off adj's rows.
func LoopedDegrees(adj *CSR) []float64 {
	deg := adj.Degrees()
	for i := range deg {
		deg[i]++
	}
	return deg
}
