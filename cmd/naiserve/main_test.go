package main

import (
	"math"
	"slices"
	"strings"
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

// TestParseShards: -shards is 1, the single deployment, or a comma-separated
// list of every worker process's address; any other count is rejected with a
// message that names -shard-worker, and so are '|' groups and empty addresses.
func TestParseShards(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []string
		err  string
	}{
		{"1", nil, ""},
		{"localhost:9000", []string{"localhost:9000"}, ""},
		{"a:1, b:2,http://c:3", []string{"a:1", "b:2", "http://c:3"}, ""},
		{"2", nil, "-shard-worker"},
		{"0", nil, "-shard-worker"},
		{"-1", nil, "-shard-worker"},
		{"a:1|b:2", nil, "'|'"},
		{"a:1,,b:2", nil, "empty worker address"},
		{"", nil, "empty worker address"},
	} {
		got, err := parseShards(c.in)
		if c.err == "" && (err != nil || !slices.Equal(got, c.want)) {
			t.Errorf("parseShards(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("parseShards(%q) = %q, %v; want an error naming %s", c.in, got, err, c.err)
		}
	}
}
