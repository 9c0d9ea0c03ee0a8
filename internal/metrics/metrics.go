// Package metrics normalizes inference results into the paper's evaluation
// columns — ACC, averaged mMACs per node, averaged FP mMACs per node,
// averaged inference time per node and averaged FP time per node (§IV-A) —
// aggregates repeated runs, and renders aligned text tables.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
)

// RunStats holds the five evaluation criteria for one inference run,
// normalized per test node like the paper's tables.
type RunStats struct {
	ACC float64
	// MMACs is total multiply-accumulates per node, in millions.
	MMACs float64
	// FPMMACs is feature-processing (propagation + distance/gate)
	// multiply-accumulates per node, in millions.
	FPMMACs float64
	// TimeUS is inference time per node in microseconds.
	TimeUS float64
	// FPTimeUS is feature-processing time per node in microseconds.
	FPTimeUS float64
}

// NewRunStats normalizes raw counters by the number of targets.
func NewRunStats(correctFrac float64, macs core.MACBreakdown, total, fp time.Duration, numTargets int) RunStats {
	if numTargets == 0 {
		return RunStats{}
	}
	n := float64(numTargets)
	return RunStats{
		ACC:      correctFrac,
		MMACs:    float64(macs.Total()) / n / 1e6,
		FPMMACs:  float64(macs.FeatureProcessing()) / n / 1e6,
		TimeUS:   float64(total.Microseconds()) / n,
		FPTimeUS: float64(fp.Microseconds()) / n,
	}
}

// Accuracy compares predictions to labels gathered by target index.
func Accuracy(pred []int, labels []int, targets []int) float64 {
	if len(pred) != len(targets) {
		panic(fmt.Sprintf("metrics: %d predictions for %d targets", len(pred), len(targets)))
	}
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i, v := range targets {
		if pred[i] == labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// Aggregate averages repeated runs (the paper reports 3-run means).
type Aggregate struct {
	runs []RunStats
}

// Add records one run.
func (a *Aggregate) Add(r RunStats) { a.runs = append(a.runs, r) }

// N returns the number of recorded runs.
func (a *Aggregate) N() int { return len(a.runs) }

// Mean returns the element-wise mean of the recorded runs.
func (a *Aggregate) Mean() RunStats {
	var m RunStats
	if len(a.runs) == 0 {
		return m
	}
	for _, r := range a.runs {
		m.ACC += r.ACC
		m.MMACs += r.MMACs
		m.FPMMACs += r.FPMMACs
		m.TimeUS += r.TimeUS
		m.FPTimeUS += r.FPTimeUS
	}
	n := float64(len(a.runs))
	m.ACC /= n
	m.MMACs /= n
	m.FPMMACs /= n
	m.TimeUS /= n
	m.FPTimeUS /= n
	return m
}

// Speedup returns base/x, guarding zero.
func Speedup(base, x float64) float64 {
	if x == 0 {
		return math.Inf(1)
	}
	return base / x
}

// Table renders rows of labelled values as an aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Headers) {
		cells = cells[:len(t.Headers)]
	}
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.rows = append(t.rows, cells)
}

// AddRowf formats each value with %v-ish defaults: floats get 2 decimals,
// everything else uses fmt.Sprint.
func (t *Table) AddRowf(cells ...interface{}) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = fmt.Sprintf("%.2f", v)
		case float32:
			out[i] = fmt.Sprintf("%.2f", v)
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(out...)
}

// Render returns the aligned table as a string.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatRatio renders a speedup like the paper's "(75)" annotations.
func FormatRatio(r float64) string {
	if math.IsInf(r, 1) {
		return "(inf)"
	}
	return fmt.Sprintf("(%.0f)", r)
}
