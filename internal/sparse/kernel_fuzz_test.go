package sparse

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// FuzzTiledSpMM drives the blocked kernels over hostile shapes — arbitrary
// matrix dimensions, feature widths (including zero), row subsets, edge
// patterns and block widths (zero, one, far beyond the feature width) —
// asserting they never read out of bounds (Go bounds checks + the race
// matrix turn any overrun into a failure), that the blocked f64 kernel
// stays bit-identical to the row-serial reference, and that the f32/int8
// kernels are block-width-invariant bit-for-bit.
func FuzzTiledSpMM(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 0, 0, 0})
	f.Add([]byte{24, 24, 13, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{8, 3, 0, 2, 0, 1, 1, 2, 2, 0, 100, 200, 30, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		rows := 1 + int(next())%24
		cols := 1 + int(next())%24
		width := int(next()) % 14
		bw := int(next()) % 40 // 0 and >width are both legal hostile inputs

		adj := make([][]int, rows)
		vals := make([][]float64, rows)
		nEdges := int(next()) % 64
		for e := 0; e < nEdges; e++ {
			r := int(next()) % rows
			c := int(next()) % cols
			adj[r] = append(adj[r], c)
			vals[r] = append(vals[r], float64(int8(next()))/16)
		}
		a := fromAdjLists(rows, cols, adj, vals)

		x := mat.New(cols, width)
		for i := range x.Data {
			x.Data[i] = float64(int8(next())) / 8
		}
		var sel []int
		for r := 0; r < rows; r++ {
			if next()%2 == 0 {
				sel = append(sel, r)
			}
		}
		if len(sel) == 0 {
			sel = []int{rows - 1}
		}

		// f64: blocked == row-serial reference, bitwise.
		ref := refMulRows(a, sel, x)
		got := mat.New(len(sel), width)
		mulRowsBlocked(a, len(sel), sel, identityRows(len(sel)), a.Val, x.Data, x.Cols, got.Data, bw)
		for i := range got.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("f64 bw=%d drifts from row-serial at %d", bw, i)
			}
		}

		// f32: block width cannot move a bit within the tier.
		av, x32 := lower32(a, x)
		base32 := make([]float32, len(sel)*width)
		mulRowsBlocked(a, len(sel), sel, identityRows(len(sel)), av, x32, width, base32, width)
		blk32 := make([]float32, len(sel)*width)
		mulRowsBlocked(a, len(sel), sel, identityRows(len(sel)), av, x32, width, blk32, bw)
		for i := range blk32 {
			if math.Float32bits(blk32[i]) != math.Float32bits(base32[i]) {
				t.Fatalf("f32 bw=%d block drift at %d", bw, i)
			}
		}

		// int8: likewise, and the public entry point runs the same shapes.
		aq, sa := kernel.Quantize(a.Val)
		xq, sx := kernel.Quantize(x.Data)
		base8 := make([]float32, len(sel)*width)
		MulRowsInto(a, sel, identityRows(len(sel)), aq, xq, width, sa*sx, base8)
		blk8 := make([]float32, len(sel)*width)
		mulRows8Blocked(a, len(sel), sel, identityRows(len(sel)), aq, xq, width, sa*sx, blk8, bw)
		for i := range blk8 {
			if math.Float32bits(blk8[i]) != math.Float32bits(base8[i]) {
				t.Fatalf("int8 bw=%d block drift at %d", bw, i)
			}
		}
	})
}
