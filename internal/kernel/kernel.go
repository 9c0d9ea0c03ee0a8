// Package kernel holds the precision primitives shared by the relaxed
// propagation tiers and the quantized baselines: the Precision tier enum that
// the engine, the shard bootstrap config and the daemon flag all agree on,
// the symmetric int8 quantizer — per tensor for the baselines and the
// benchmark's stored-matrix kernels, row by row for the int8 tier's features —
// and the float32 lowering helper.
//
// The repository's accuracy story hangs off one convention fixed here:
// PrecisionF64 is the bit-pinned reference tier (every equivalence suite
// compares against it), while PrecisionF32 and PrecisionInt8 are relaxed
// tiers whose drift is measured and gated, never assumed.
package kernel

import (
	"fmt"
	"math"
)

// Precision selects the arithmetic tier of the propagation kernels. The
// zero value is PrecisionF64, so every config struct that embeds a
// Precision defaults to the bit-pinned reference tier.
type Precision int

const (
	// PrecisionF64 is the reference tier: scalar float64 propagation,
	// bit-identical across batch splits, shards and transports.
	PrecisionF64 Precision = iota
	// PrecisionF32 propagates in float32 (adjacency rows and features rounded
	// to float32, float32 accumulation); decisions and classifiers stay f64.
	PrecisionF32
	// PrecisionInt8 is PrecisionF32 over features stored as int8, one
	// symmetric scale per row: hop 1 gathers the int8 rows into float32
	// accumulators, each entry of Â multiplied by its column's row scale, and
	// every later hop, the layers and decisions are PrecisionF32's.
	PrecisionInt8
)

// String names the tier the way flags and /stats spell it.
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	case PrecisionInt8:
		return "int8"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

// Valid reports whether p is one of the three defined tiers (wire decoding
// and flag parsing reject anything else).
func (p Precision) Valid() bool {
	return p == PrecisionF64 || p == PrecisionF32 || p == PrecisionInt8
}

// ParsePrecision parses a tier name as spelled by String ("f64", "f32",
// "int8").
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64":
		return PrecisionF64, nil
	case "f32":
		return PrecisionF32, nil
	case "int8":
		return PrecisionInt8, nil
	default:
		return 0, fmt.Errorf("kernel: unknown precision %q (want f64, f32 or int8)", s)
	}
}

// Quantize maps values to int8 with the symmetric recipe the whole
// repository uses, over whatever tensor it is given — a whole matrix, or one
// row of one: scale = maxabs/127 (scale 1 for an all-zero tensor),
// round-to-even, clamp to [-127, 127]. Dequantization is
// float64(q)*scale, so the per-element error is at most scale/2 for inputs
// within ±maxabs — for any tensor whose scale is a normal float64
// (subnormal scales lose the guarantee to rounding in the division itself;
// no real feature or adjacency tensor gets near 1e-305).
func Quantize(values []float64) ([]int8, float64) {
	out := make([]int8, len(values))
	scale := QuantizeInto(out, values)
	return out, scale
}

// QuantizeInto is Quantize writing into a caller-owned slice (len(dst) must
// be len(values)); it returns the scale. The int8 tier quantizes its features
// with it one row at a time, each row at its own scale.
func QuantizeInto(dst []int8, values []float64) float64 {
	if len(dst) != len(values) {
		panic(fmt.Sprintf("kernel: QuantizeInto dst length %d != %d", len(dst), len(values)))
	}
	maxAbs := 0.0
	for _, v := range values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	for i, v := range values {
		dst[i] = quantizeOne(v, scale)
	}
	return scale
}

// quantizeOne rounds one value at a fixed scale. Exposed behavior is pinned
// by the baselines regression test: identical bits to the recipe that
// previously lived in internal/baselines.
func quantizeOne(v, scale float64) int8 {
	q := math.RoundToEven(v / scale)
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return int8(q)
}

// ToF32 lowers a float64 tensor into a caller-owned float32 slice (the
// single rounding every f32-tier operand is built with).
func ToF32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("kernel: ToF32 dst length %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}
