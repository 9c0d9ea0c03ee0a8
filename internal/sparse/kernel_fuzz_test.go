package sparse

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// FuzzTiledSpMM drives the row drivers over hostile shapes — arbitrary
// matrix dimensions, feature widths (including zero), row subsets and edge
// patterns — asserting they never read out of bounds (Go bounds checks + the race
// matrix turn any overrun into a failure) and that every tier stays
// bit-identical to its row-serial reference: a plain loop at f64 and f32,
// exact int32 accumulation then one dequantize at int8.
func FuzzTiledSpMM(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 0, 0, 0})
	f.Add([]byte{24, 24, 13, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{8, 3, 0, 2, 0, 1, 1, 2, 2, 0, 100, 200, 30, 40})
	// 13×11 with three edges and eleven features, every value and the row
	// subset drawn from the data.
	blocks := []byte{12, 10, 11, 3, 20}
	for i := 0; i < 200; i++ {
		blocks = append(blocks, byte(i*37+11))
	}
	f.Add(blocks)
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

		adj := make([][]int, rows)
		vals := make([][]float64, rows)
		nEdges := int(next()) % 64
		for e := 0; e < nEdges; e++ {
			r := int(next()) % rows
			c := int(next()) % cols
			adj[r] = append(adj[r], c)
			vals[r] = append(vals[r], float64(int8(next()))/16)
		}
		a := valuedCSR(rows, cols, adj, vals)

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

		// f64: driver == row-serial reference, bitwise.
		ref := refMulRows(a, sel, x)
		got := mat.New(len(sel), width)
		mulRowsFloat(csrRows(a, sel, a.Val), nil, x.Data, nil, width, got.Data)
		for i := range got.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("f64 drifts from row-serial at %d", i)
			}
		}

		// f32: likewise against the f32 loop.
		av, x32 := lower32(a, x)
		blk32 := make([]float32, len(sel)*width)
		mulRowsFloat(csrRows(a, sel, av), nil, x32, nil, width, blk32)
		if i, ok := sameBits32(blk32, refMulRows32(a, sel, av, x32, width)); !ok {
			t.Fatalf("f32 drifts from row-serial at %d", i)
		}

		// int8: against exact int32 then one dequantize, through the driver
		// and through the public entry point.
		aq, sa := kernel.Quantize(a.Val)
		xq, sx := kernel.Quantize(x.Data)
		ref8 := refMulRows8(a, sel, aq, xq, width, sa*sx)
		blk8 := make([]float32, len(sel)*width)
		mulRowsInt(csrRows(a, sel, aq), nil, xq, width, sa*sx, blk8)
		if i, ok := sameBits32(blk8, ref8); !ok {
			t.Fatalf("int8 drifts from row-serial at %d", i)
		}
		pub8 := make([]float32, len(sel)*width)
		MulRowsInto(a, sel, nil, aq, xq, width, sa*sx, pub8)
		if i, ok := sameBits32(pub8, ref8); !ok {
			t.Fatalf("int8 MulRowsInto drifts from row-serial at %d", i)
		}
	})
}
