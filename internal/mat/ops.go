package mat

import "math"

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	sameShape(a, b, "Add")
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	sameShape(a, b, "Sub")
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// MulElem returns the Hadamard product a ⊙ b.
func MulElem(a, b *Matrix) *Matrix {
	sameShape(a, b, "MulElem")
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

// Scale returns alpha * a.
func Scale(alpha float64, a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = alpha * v
	}
	return out
}

// AddScaled returns a + alpha*b.
func AddScaled(a *Matrix, alpha float64, b *Matrix) *Matrix {
	sameShape(a, b, "AddScaled")
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + alpha*b.Data[i]
	}
	return out
}

// AddIn adds b into a in place.
func (m *Matrix) AddIn(b *Matrix) {
	sameShape(m, b, "AddIn")
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// SubIn subtracts b from a in place.
func (m *Matrix) SubIn(b *Matrix) {
	sameShape(m, b, "SubIn")
	for i, v := range b.Data {
		m.Data[i] -= v
	}
}

// ScaleIn multiplies every element by alpha in place.
func (m *Matrix) ScaleIn(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Apply returns f applied element-wise.
func Apply(a *Matrix, f func(float64) float64) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// AddRowVec returns a with the 1×c row vector v added to every row.
func AddRowVec(a *Matrix, v []float64) *Matrix {
	if len(v) != a.Cols {
		panic("mat: AddRowVec length mismatch")
	}
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		src := a.Row(i)
		dst := out.Row(i)
		for j, x := range src {
			dst[j] = x + v[j]
		}
	}
	return out
}

// MulColVec returns a with row i multiplied by s[i] (diagonal left-scaling).
func MulColVec(a *Matrix, s []float64) *Matrix {
	if len(s) != a.Rows {
		panic("mat: MulColVec length mismatch")
	}
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		si := s[i]
		src := a.Row(i)
		dst := out.Row(i)
		for j, x := range src {
			dst[j] = si * x
		}
	}
	return out
}

// ReLU returns max(0, a) element-wise.
func ReLU(a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// Sigmoid returns 1/(1+exp(-a)) element-wise.
func Sigmoid(a *Matrix) *Matrix {
	return Apply(a, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
}
