package main

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestParseMode: naiserve checks its -mode and -ts-quantile flags with
// core.ParseMode: every mode name parses, and a typo or a -ts-quantile outside
// [0, 1] is an error before any training runs.
func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		name string
		q    float64
		want core.Mode
		ok   bool
	}{
		{"fixed", 0.3, core.ModeFixed, true},
		{"distance", 0, core.ModeDistance, true},
		{"distance", 1, core.ModeDistance, true},
		{"gate", 0.5, core.ModeGate, true},
		{"distanse", 0.3, 0, false},
		{"", 0.3, 0, false},
		{"distance", -0.1, 0, false},
		{"distance", 1.5, 0, false},
		{"distance", math.NaN(), 0, false},
	} {
		got, err := core.ParseMode(c.name, c.q)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("core.ParseMode(%q, %v) = %v, %v; want %v, ok %v", c.name, c.q, got, err, c.want, c.ok)
		}
	}
}
