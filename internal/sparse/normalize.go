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
// applies Â = D̃^{γ−1} Ã D̃^{−γ} where D̃ is the self-looped degree matrix,
// storing every entry: the reference the tests pin the Normalized operator
// to, and the matrix the benchmark ladder times. adj must be square.
func NormalizedAdjacency(adj *CSR, gamma float64) *CSR {
	return NormalizedAdjacencyWithDegrees(adj, gamma, LoopedDegrees(adj))
}

// NormalizedAdjacencyWithDegrees is NormalizedAdjacency with the looped
// degree vector d̃ supplied by the caller instead of derived from adj's rows
// (the two coincide bit for bit when looped = LoopedDegrees(adj)): the stored
// reference for an operator over a shard's truncated adjacency with the
// global degrees. looped must cover every node with positive entries.
func NormalizedAdjacencyWithDegrees(adj *CSR, gamma float64, looped []float64) *CSR {
	if adj.Rows != adj.Cols {
		panic("sparse: NormalizedAdjacency requires a square matrix")
	}
	if gamma < 0 || gamma > 1 {
		panic(fmt.Sprintf("sparse: gamma %v outside [0,1]", gamma))
	}
	if len(looped) < adj.Rows {
		panic(fmt.Sprintf("sparse: %d looped degrees for %d nodes", len(looped), adj.Rows))
	}
	loop := adj.AddSelfLoops()
	left := make([]float64, adj.Rows)  // d̃^{γ−1}
	right := make([]float64, adj.Rows) // d̃^{−γ}
	for i := 0; i < adj.Rows; i++ {
		d := looped[i]
		if d <= 0 {
			panic(fmt.Sprintf("sparse: node %d has non-positive looped degree %v", i, d))
		}
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
// adding self-loops), used by the stationary-state formula Eq. (7).
func LoopedDegrees(adj *CSR) []float64 {
	deg := adj.Degrees()
	for i := range deg {
		deg[i]++
	}
	return deg
}
