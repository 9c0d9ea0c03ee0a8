package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	sz := smokeSizes()
	build := func(seed int64) ([][]byte, [][]byte) {
		fx, err := newFixture(seed, sz.n)
		if err != nil {
			t.Fatal(err)
		}
		var reads [][]byte
		for i, w := range workloads {
			w.streamLen = 64
			reads = append(reads, fx.requests(w, i).bodies...)
		}
		return reads, fx.deltas.bodies
	}
	r1, d1 := build(7)
	r2, d2 := build(7)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(d1, d2) {
		t.Fatal("same seed produced different request or delta bytes")
	}
	r3, d3 := build(8)
	if reflect.DeepEqual(r1, r3) || reflect.DeepEqual(d1, d3) {
		t.Fatal("different seeds produced the same request or delta bytes")
	}
	for i, w := range workloads {
		for _, body := range r1[i*64 : (i+1)*64] {
			var req serve.InferRequest
			if err := json.Unmarshal(body, &req); err != nil || len(req.Nodes) != w.fan {
				t.Fatalf("%s body %s: %d nodes, want %d (%v)", w.name, body, len(req.Nodes), w.fan, err)
			}
		}
	}
}

func TestEstimators(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.0, 1}, {1, 10}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(asc); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if q1, q3 := quartiles([]float64{40, 10, 20}); q1 != 10 || q3 != 40 {
		t.Errorf("quartiles(10,20,40) = %v, %v, want 10, 40", q1, q3)
	}
	if got := spreadShare(asc); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare(1..10) = %v, want 1", got)
	}
}

func TestPhaseEstimators(t *testing.T) {
	// Slice k holds k+1 reads of latency k+1 ms.
	var p phaseResult
	for k := 5; k >= 0; k-- {
		s := phaseResult{wall: time.Second, sent: k + 1}
		for i := 0; i <= k; i++ {
			s.lat = append(s.lat, time.Duration(k+1)*time.Millisecond)
		}
		p.add(s)
	}
	lat := p.latencies()
	if len(lat) != 21 || lat[0] != 1 || lat[20] != 6 || !sort.Float64sAreSorted(lat) {
		t.Errorf("latencies = %v, want the 21 of them ascending from 1 to 6 ms", lat)
	}
	if p.wall != 6*time.Second || p.sent != 21 {
		t.Errorf("six slices add up to %v and %d reads sent", p.wall, p.sent)
	}
	if got := p.sliceSpread(); got != (6-1)/3.5 {
		t.Errorf("sliceSpread = %v, want (6-1)/3.5", got)
	}
}

func TestPairedSelfTime(t *testing.T) {
	tr := newTracer()
	tr.ms["point/above"] = []float64{10, 1, 5}
	tr.ms["point/beneath"] = []float64{8, 0.5, 2}
	// Request by request: 2, 0.5, 3. The rungs' medians differ by 5 - 2 = 3.
	if got := tr.self("point", "above", "beneath"); got != 2 {
		t.Errorf("self = %v, want the median 2 of the paired differences", got)
	}
}

func TestDiffReplyNamesTheFirstDifference(t *testing.T) {
	nodes := []int{4, 9}
	want := &core.Result{Pred: []int{1, 2}, Depths: []int{2, 2}}
	if d := diffReply(nodes, serve.InferResponse{Preds: []int{1, 2}, Depths: []int{2, 2}}, want); d != "" {
		t.Errorf("exact reply reported %q", d)
	}
	if d := diffReply(nodes, serve.InferResponse{Preds: []int{1, 2}, Depths: []int{2, 1}}, want); d != "node 9: served pred 2 depth 1, reference pred 2 depth 2" {
		t.Errorf("wrong depth reported %q", d)
	}
	if d := diffReply(nodes, serve.InferResponse{Preds: []int{1}, Depths: []int{2}}, want); d == "" {
		t.Error("short reply passed")
	}
}

// TestSmoke runs every workload end to end at toy size, both kinds of run:
// every named metric must come out with its unit, every answer must equal
// the reference, nothing may fail. It asserts no timing.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for i, w := range workloads {
		for _, traced := range []bool{false, true} {
			line, err := run(i, 11, smokeSizes(), traced, out, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, line.Correct, line.Failed, line.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if v := line.Metrics["verify.exact_share"].Value; v != 1 {
					t.Errorf("%s: verify.exact_share = %v", w.name, v)
				}
				if v := line.Metrics["verify.fail_share"].Value; v != 0 {
					t.Errorf("%s: verify.fail_share = %v", w.name, v)
				}
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", w.name, traced, d.Name, m, ok, d.Unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if line.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, line.Metrics[d.Name].Value)
					}
				}
			}
		}
		checkTrace(t, filepath.Join(out, "trace_"+w.name+".json"), w.name)
	}
}

// checkTrace reads one trace file: it must carry the run's provenance and a
// span for every rung, each linked to the same request's span one rung up.
func checkTrace(t *testing.T, path, workload string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Header.Workload != workload || tf.Header.Seed != 11 || tf.Header.NProc < 1 || tf.Header.GoVersion == "" || tf.Header.Commit == "" {
		t.Errorf("trace header %+v lacks provenance", tf.Header)
	}
	byID := map[int]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	above := map[string]string{ // shape/name → name of the rung above
		"point/serve.classify": "serve.http", "point/core.infer": "serve.classify",
		"point/graph.bfs": "core.infer", "point/sparse.extract": "core.infer", "point/sparse.spmm": "core.infer",
		"deep/serve.classify": "serve.http", "deep/core.infer": "serve.classify",
		"deep/graph.bfs": "core.infer", "deep/sparse.extract": "core.infer", "deep/sparse.spmm": "core.infer",
		"fan8/serve.classify": "serve.http", "fan8/shard.router_http": "serve.classify",
		"fan8/shard.router_local": "shard.router_http", "fan8/core.infer": "shard.router_local",
		"fan8/graph.bfs": "core.infer",
	}
	seen := map[string]int{}
	for _, s := range tf.Spans {
		key := s.Shape + "/" + s.Name
		seen[key]++
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		want, linked := above[key]
		if !linked {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Name != want || p.Req != s.Req || p.Shape != s.Shape {
			t.Fatalf("span %d (%s req %d) has parent %+v, want a %s span of the same request", s.ID, key, s.Req, p, want)
		}
	}
	for key := range above {
		if seen[key] == 0 {
			t.Errorf("no %s spans in %s", key, path)
		}
	}
	for _, top := range []string{"point/serve.http", "deep/serve.http", "fan8/serve.http", "point/serve.http_hit", "point/loadgen.null_http"} {
		if seen[top] == 0 {
			t.Errorf("no %s spans in %s", top, path)
		}
	}
}

// TestBenchmarkJSONMatchesTheTables pins BENCHMARK.json to the tables the
// program reports from, so the two cannot drift apart.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v, table has %s (%d chars of why)", i, spec.Workloads[i], w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	hasSetup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup || len(spec.PerLayer) > 128 {
		t.Errorf("setup_s present %v, %d per-layer metrics", hasSetup, len(spec.PerLayer))
	}
}
