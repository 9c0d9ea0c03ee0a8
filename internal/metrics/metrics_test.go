package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestNewRunStatsNormalization(t *testing.T) {
	macs := core.MACBreakdown{Propagation: 4_000_000, Decision: 2_000_000, Classification: 6_000_000}
	r := NewRunStats(0.8, macs, 20*time.Millisecond, 5*time.Millisecond, 10)
	if r.ACC != 0.8 {
		t.Fatalf("ACC = %v", r.ACC)
	}
	if r.MMACs != 1.2 { // 12M / 10 nodes / 1e6
		t.Fatalf("MMACs = %v", r.MMACs)
	}
	if r.FPMMACs != 0.6 { // (4M+2M)/10/1e6
		t.Fatalf("FPMMACs = %v", r.FPMMACs)
	}
	if r.TimeUS != 2000 {
		t.Fatalf("TimeUS = %v", r.TimeUS)
	}
	if r.FPTimeUS != 500 {
		t.Fatalf("FPTimeUS = %v", r.FPTimeUS)
	}
}

func TestNewRunStatsEmpty(t *testing.T) {
	r := NewRunStats(0, core.MACBreakdown{}, 0, 0, 0)
	if r != (RunStats{}) {
		t.Fatal("empty stats should be zero")
	}
}

func TestAccuracy(t *testing.T) {
	labels := []int{0, 1, 2, 0, 1}
	got := Accuracy([]int{1, 2}, labels, []int{1, 3})
	if got != 0.5 {
		t.Fatalf("Accuracy = %v", got)
	}
	if Accuracy(nil, labels, nil) != 0 {
		t.Fatal("empty accuracy")
	}
}

func TestAccuracyLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Accuracy([]int{1}, []int{0, 1}, []int{0, 1})
}

func TestAggregateMean(t *testing.T) {
	var a Aggregate
	a.Add(RunStats{ACC: 0.5, MMACs: 10, TimeUS: 100})
	a.Add(RunStats{ACC: 0.7, MMACs: 20, TimeUS: 200})
	m := a.Mean()
	if math.Abs(m.ACC-0.6) > 1e-12 || m.MMACs != 15 || m.TimeUS != 150 {
		t.Fatalf("Mean = %+v", m)
	}
	if a.N() != 2 {
		t.Fatalf("N = %d", a.N())
	}
}

func TestAggregateEmptyMean(t *testing.T) {
	var a Aggregate
	if a.Mean() != (RunStats{}) {
		t.Fatal("empty aggregate mean should be zero")
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(100, 4) != 25 {
		t.Fatal("Speedup")
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("Speedup by zero")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("a", "1")
	tb.AddRowf("bcd", 2.5)
	out := tb.Render()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "name") {
		t.Fatalf("render missing parts:\n%s", out)
	}
	if !strings.Contains(out, "2.50") {
		t.Fatalf("float formatting missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("x")                // short row padded
	tb.AddRow("1", "2", "3", "4") // long row truncated
	out := tb.Render()
	if strings.Contains(out, "4") {
		t.Fatalf("extra cell not dropped:\n%s", out)
	}
}

func TestFormatRatio(t *testing.T) {
	if FormatRatio(74.6) != "(75)" {
		t.Fatalf("FormatRatio = %s", FormatRatio(74.6))
	}
	if FormatRatio(math.Inf(1)) != "(inf)" {
		t.Fatal("inf ratio")
	}
}
