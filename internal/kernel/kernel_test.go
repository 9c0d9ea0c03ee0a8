package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestPrecisionStringParse(t *testing.T) {
	for _, p := range []Precision{PrecisionF64, PrecisionF32, PrecisionInt8} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
		if !p.Valid() {
			t.Fatalf("%v not Valid", p)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision accepted f16")
	}
	if Precision(42).Valid() {
		t.Fatal("Precision(42) reported Valid")
	}
	if Precision(0) != PrecisionF64 {
		t.Fatal("zero value must be the f64 reference tier")
	}
}

func TestQuantizeAllZero(t *testing.T) {
	q, scale := Quantize(make([]float64, 5))
	if scale != 1 {
		t.Fatalf("all-zero scale = %v, want 1", scale)
	}
	for _, v := range q {
		if v != 0 {
			t.Fatalf("all-zero quantized to %v", q)
		}
	}
}

func TestQuantizeErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		vals := make([]float64, 1+rng.Intn(200))
		for i := range vals {
			vals[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(7)-3))
		}
		q, scale := Quantize(vals)
		checkQuantized(t, vals, q, scale)

		into := make([]int8, len(vals))
		if s2 := QuantizeInto(into, vals); s2 != scale {
			t.Fatalf("QuantizeInto scale %v != Quantize scale %v", s2, scale)
		}
		for i := range q {
			if into[i] != q[i] {
				t.Fatalf("QuantizeInto[%d] = %d, Quantize = %d", i, into[i], q[i])
			}
		}
	}
}

// checkQuantized asserts the documented contract: values clamp to
// [-127, 127] (the symmetric range — never -128) and, for finite inputs,
// dequantization is within scale/2 per element.
func checkQuantized(t *testing.T, vals []float64, q []int8, scale float64) {
	t.Helper()
	if len(q) != len(vals) {
		t.Fatalf("quantized %d values into %d", len(vals), len(q))
	}
	if !(scale > 0) || math.IsInf(scale, 0) || math.IsNaN(scale) {
		// A non-finite or non-positive scale only arises when some input is
		// non-finite; the clamp check below still applies.
		anyNonFinite := false
		for _, v := range vals {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				anyNonFinite = true
			}
		}
		if !anyNonFinite {
			t.Fatalf("scale %v for all-finite inputs", scale)
		}
	}
	finite := true
	for _, v := range vals {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			finite = false
		}
	}
	// The half-step guarantee is documented for normal scales only: a
	// subnormal scale is itself a rounded quotient, so clamp-only applies.
	if scale < 0x1p-1022 {
		finite = false
	}
	for i, qv := range q {
		if qv < -127 || qv > 127 {
			t.Fatalf("q[%d] = %d outside [-127, 127]", i, qv)
		}
		if finite {
			if err := math.Abs(vals[i] - float64(qv)*scale); err > scale/2*(1+1e-12) {
				t.Fatalf("q[%d]: |%v - %d*%v| = %v > scale/2", i, vals[i], qv, scale, err)
			}
		}
	}
}

// FuzzQuantize pins the quantizer's safety contract on arbitrary inputs:
// never panics, always clamps to the symmetric [-127, 127] range, and for
// finite inputs the round-trip error stays within scale/2 per element.
func FuzzQuantize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	seed := make([]byte, 0, 64)
	for _, v := range []float64{1, -1, 0.5, 1e300, -1e-300, 127, 127.5, -128} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		q, scale := Quantize(vals)
		checkQuantized(t, vals, q, scale)
	})
}
