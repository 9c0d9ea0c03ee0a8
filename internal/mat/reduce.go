package mat

import "math"

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the mean of all elements (0 for an empty matrix).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// Max returns the largest element (−Inf for an empty matrix).
func (m *Matrix) Max() float64 {
	best := math.Inf(-1)
	for _, v := range m.Data {
		if v > best {
			best = v
		}
	}
	return best
}

// Min returns the smallest element (+Inf for an empty matrix).
func (m *Matrix) Min() float64 {
	best := math.Inf(1)
	for _, v := range m.Data {
		if v < best {
			best = v
		}
	}
	return best
}

// FrobeniusNorm returns sqrt(Σ m_ij²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// RowSums returns the per-row sums.
func (m *Matrix) RowSums() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// ColSums returns the per-column sums.
func (m *Matrix) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// RowDistances returns per-row l2 distances ‖a_i − b_i‖.
func RowDistances(a, b *Matrix) []float64 {
	sameShape(a, b, "RowDistances")
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		var s float64
		for j, v := range ra {
			d := v - rb[j]
			s += d * d
		}
		out[i] = math.Sqrt(s)
	}
	return out
}

// ArgmaxRows returns the index of the maximum element of each row.
func (m *Matrix) ArgmaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// SoftmaxRows returns row-wise softmax with the max-subtraction trick.
func SoftmaxRows(a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		softmaxInto(out.Row(i), a.Row(i))
	}
	return out
}

// softmaxInto writes softmax(src) into dst (same length).
func softmaxInto(dst, src []float64) {
	maxv := math.Inf(-1)
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range src {
		e := math.Exp(v - maxv)
		dst[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range dst {
		dst[j] *= inv
	}
}

// LogSoftmaxRows returns row-wise log-softmax.
func LogSoftmaxRows(a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		src := a.Row(i)
		dst := out.Row(i)
		maxv := math.Inf(-1)
		for _, v := range src {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range src {
			sum += math.Exp(v - maxv)
		}
		lse := maxv + math.Log(sum)
		for j, v := range src {
			dst[j] = v - lse
		}
	}
	return out
}
