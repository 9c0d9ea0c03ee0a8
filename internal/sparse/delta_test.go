package sparse

import (
	"math/rand"
	"testing"
)

// randomAdj builds a random symmetric binary adjacency.
func randomDeltaAdj(n int, p float64, rng *rand.Rand) *CSR {
	var src, dst []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				src = append(src, i)
				dst = append(dst, j)
			}
		}
	}
	return FromEdges(n, src, dst, true)
}

func csrEqual(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.Col {
		if a.Col[k] != b.Col[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// TestAppendEdgesEmptyDelta: growing without edges adds empty rows and
// dirties nothing.
func TestAppendEdgesEmptyDelta(t *testing.T) {
	base := randomDeltaAdj(12, 0.2, rand.New(rand.NewSource(1)))
	grown, dirty := base.AppendEdges(15, nil, nil)
	if len(dirty) != 0 {
		t.Fatalf("empty delta dirtied %v", dirty)
	}
	if grown.Rows != 15 || grown.NNZ() != base.NNZ() {
		t.Fatal("bad grown shape")
	}
	for i := 12; i < 15; i++ {
		if grown.RowNNZ(i) != 0 {
			t.Fatal("appended rows not empty")
		}
	}
}
