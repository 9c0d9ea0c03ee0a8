// Package kernel holds the precision primitives shared by the relaxed
// propagation kernels and the quantized baselines: the Precision tier enum
// that the engine, the shard bootstrap config and the daemon flag all agree
// on, plus the symmetric per-tensor int8 quantizer and the float32 lowering
// helpers the relaxed tiers' operands are built with.
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
	// PrecisionInt8 propagates with symmetric per-tensor int8 operands and
	// int32 accumulation, dequantizing each hop back to float32; decisions
	// and classifiers stay f64.
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

// Quantize maps values to int8 with the symmetric per-tensor recipe the
// whole repository uses: scale = maxabs/127 (scale 1 for an all-zero
// tensor), round-to-even, clamp to [-127, 127]. Dequantization is
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
// be len(values)); it returns the scale. Serving paths re-quantize per-hop
// activations into pooled scratch with it.
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
	scale := ScaleFor(maxAbs)
	QuantizeAtScale(dst, values, scale)
	return scale
}

// QuantizeF32Into quantizes a float32 tensor with the same recipe (the
// max-abs scan and the per-element rounding run in float64, so a float32
// tensor and its exact float64 widening quantize identically).
func QuantizeF32Into(dst []int8, values []float32) float64 {
	if len(dst) != len(values) {
		panic(fmt.Sprintf("kernel: QuantizeF32Into dst length %d != %d", len(dst), len(values)))
	}
	scale := ScaleFor(MaxAbsF32(values))
	QuantizeAtScale(dst, values, scale)
	return scale
}

// MaxAbsF32 returns max|v| over the tensor in float64 (the first pass of
// the two-pass quantizer; split out so callers quantizing a tensor stored
// as scattered row groups — e.g. the valid rows of a hop buffer — can scan
// and quantize per group under one shared scale).
func MaxAbsF32(values []float32) float64 {
	var maxAbs float32 // widening is exact and monotone: compare narrow, widen once
	for _, v := range values {
		if a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); a > maxAbs {
			maxAbs = a
		}
	}
	return float64(maxAbs)
}

// ScaleFor maps a tensor's max|v| to its symmetric per-tensor scale:
// maxAbs/127, or 1 for an all-zero tensor.
func ScaleFor(maxAbs float64) float64 {
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	return scale
}

// QuantizeAtScale quantizes values at a caller-fixed scale (the second pass
// of the two-pass quantizer), for callers that only ever see a tensor a slice
// at a time: the valid rows of a hop buffer, or the engine's per-batch cuts
// of the normalized adjacency. The scale must come from ScaleFor over the
// whole tensor for the scale/2 error guarantee to hold; a float32 value
// rounds as its exact float64 widening.
func QuantizeAtScale[V float64 | float32](dst []int8, values []V, scale float64) {
	if len(dst) != len(values) {
		panic(fmt.Sprintf("kernel: QuantizeAtScale dst length %d != %d", len(dst), len(values)))
	}
	for i, v := range values {
		dst[i] = quantizeOne(float64(v), scale)
	}
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
