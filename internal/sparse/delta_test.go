package sparse

import (
	"math"
	"math/rand"
	"slices"
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

// TestIDWidthGuard: FromEdges and AppendEdges refuse a node count past the
// int32 column ids before allocating anything n-sized.
func TestIDWidthGuard(t *testing.T) {
	const n = math.MaxInt32 + 1
	small := FromEdges(3, []int{0}, []int{1}, true)
	for name, build := range map[string]func(){
		"FromEdges":   func() { FromEdges(n, nil, nil, true) },
		"AppendEdges": func() { small.AppendEdges(n, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s over %d nodes did not panic", name, n)
				}
			}()
			build()
		}()
	}
}

// FuzzAppendEdges checks AppendEdges against FromEdges over the union edge
// set — the same RowPtr and Col, no values — and its dirty list against the
// rows whose degree changed, over fuzzer-chosen graphs, growth and deltas.
func FuzzAppendEdges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 2, 1, 1})
	f.Add([]byte{6, 3, 0, 1, 1, 2, 2, 3, 2, 4, 0, 1, 4, 5, 0, 5})
	f.Add([]byte{9, 8, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 4, 5, 6, 7, 9, 1, 0, 1, 0, 2, 6, 2, 9, 8, 3, 10, 11, 12})
	f.Add([]byte{1, 0, 3, 4, 0, 0, 0, 1, 1, 2, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%24
		var src, dst []int
		for e := next() % 64; e > 0; e-- {
			src, dst = append(src, next()%n), append(dst, next()%n)
		}
		grow := next() % 5
		var dsrc, ddst []int
		for e := next() % 16; e > 0; e-- {
			dsrc, ddst = append(dsrc, next()%(n+grow)), append(ddst, next()%(n+grow))
		}
		base := FromEdges(n, src, dst, true)
		before := base.Clone()
		got, dirty := base.AppendEdges(n+grow, dsrc, ddst)
		want := FromEdges(n+grow, append(src, dsrc...), append(dst, ddst...), true)
		if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
			t.Fatalf("AppendEdges = %v %v, FromEdges over the union %v %v", got.RowPtr, got.Col, want.RowPtr, want.Col)
		}
		if got.Val != nil {
			t.Fatalf("AppendEdges stored %d values", len(got.Val))
		}
		var changed []int
		for i := 0; i < got.Rows; i++ {
			old := 0
			if i < n {
				old = before.RowNNZ(i)
			}
			if got.RowNNZ(i) != old {
				changed = append(changed, i)
			}
		}
		if !slices.Equal(dirty, changed) {
			t.Fatalf("dirty %v, rows whose degree changed %v", dirty, changed)
		}
		if !slices.Equal(base.RowPtr, before.RowPtr) || !slices.Equal(base.Col, before.Col) {
			t.Fatal("AppendEdges wrote into its receiver")
		}
	})
}
