package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The layer ladder is timed from outside: the benchmark calls each layer's
// public entry point with the same request — the HTTP endpoint, then
// serve.ClassifyContext, then the backend's Infer, then the BFS, extract and
// SpMM calls Infer makes — and records one span around each call. A span's
// parent is the same request's span one rung up, so a rung's self time is its
// span minus the rung beneath it. Nothing inside the program is instrumented;
// spans inside it are a later change.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = top rung
	Req    int    `json:"req"`    // spans of one replayed request share it
	Shape  string `json:"shape"`  // point, fan8 or deep
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the ladder ends. The measured phase
// never sees it: the ladder replays requests after the phase, so the
// end-to-end metrics carry no tracing cost at all.
type tracer struct {
	t0    time.Time
	spans []span
	// ids[shape/name][req] is the recorded span id, for parent links.
	ids map[string][]int
	// ms[shape/name] lists the rung's durations in milliseconds.
	ms map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: map[string][]int{}, ms: map[string][]float64{}}
}

// record notes one call of rung name for request req, beneath rung above
// ("" for the top rung).
func (t *tracer) record(shape, name, above string, req int, start, end time.Time) {
	key := shape + "/" + name
	t.ms[key] = append(t.ms[key], float64(end.Sub(start))/float64(time.Millisecond))
	parent := 0
	if ids := t.ids[shape+"/"+above]; req < len(ids) {
		parent = ids[req]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Shape: shape, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	for len(t.ids[key]) <= req {
		t.ids[key] = append(t.ids[key], 0)
	}
	t.ids[key][req] = id
}

// rung calls fn once per request and records a span around each call.
func (t *tracer) rung(shape, name, above string, n int, fn func(req int) error) error {
	for req := 0; req < n; req++ {
		start := time.Now()
		if err := fn(req); err != nil {
			return err
		}
		t.record(shape, name, above, req, start, time.Now())
	}
	return nil
}

// median is the rung's median duration in milliseconds.
func (t *tracer) median(shape, name string) float64 { return median(t.ms[shape+"/"+name]) }

// self is rung name's self time in milliseconds: the median, over the
// replayed requests, of the request's span at name minus its span at the
// rung beneath. Both rungs replay the same requests in the same order, so
// the difference is taken request by request; a difference of the two rungs'
// medians would carry the spread of the requests themselves (a 2-hop ball is
// anything from a few dozen nodes to a few thousand) and comes out negative
// as often as not.
func (t *tracer) self(shape, name, beneath string) float64 {
	above, below := t.ms[shape+"/"+name], t.ms[shape+"/"+beneath]
	diff := make([]float64, min(len(above), len(below)))
	for i := range diff {
		diff[i] = above[i] - below[i]
	}
	return median(diff)
}

// traceFile is what benchmark/out/trace_<workload>.json holds.
type traceFile struct {
	Header header `json:"header"`
	Spans  []span `json:"spans"`
}

// write stores the spans as dir/trace_<workload>.json.
func (t *tracer) write(hdr header, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Header: hdr, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+hdr.Workload+".json"), b, 0o644)
}
