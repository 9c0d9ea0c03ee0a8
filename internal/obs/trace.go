package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented segment of the request path. The
// taxonomy follows the life of a request: arrival to backend call in the
// serving layer; BFS supporting-set construction, per-hop propagation, exit
// decisions and classification in the engine;
// the shard router's one call to a worker (fanout); and
// encode/RPC/decode in the HTTP transport.
type Stage uint8

// The span taxonomy. StagePropagate spans additionally carry the hop
// number; StageFanout/StageEncode/StageRPC/StageDecode spans carry the
// shard id.
const (
	// StageQueue runs from a request's arrival to its backend call: quota,
	// id validation, cache reads and admission.
	StageQueue Stage = iota
	// StageBFS is multi-source supporting-set construction: in the engine,
	// a level-ordered BFS around the targets active at a hop past the layer
	// that needs a ball — at most one a batch — whose sorted balls are the
	// rows of that hop and the ones after it.
	StageBFS
	// StagePropagate is one feature-propagation step (SpMM at the active
	// precision tier); Span.Hop holds the hop. A hop past the engine's layer
	// that decides takes two steps, one on each side of its exit wave.
	StagePropagate
	// StageDecide is the NAP exit decision sweep over the still-active
	// targets.
	StageDecide
	// StageClassify is combine + per-depth classifier evaluation.
	StageClassify
	// StageFanout is the router's one call to a worker, failover and
	// transport included; Span.Shard holds the index of the worker last
	// tried.
	StageFanout
	// StageEncode is wire-format encoding of one shard RPC request.
	StageEncode
	// StageRPC is the HTTP round trip of one shard RPC.
	StageRPC
	// StageDecode is wire-format decoding of one shard RPC reply.
	StageDecode

	numStages
)

var stageNames = [numStages]string{
	"queue", "bfs", "propagate", "decide",
	"classify", "fanout", "encode", "rpc", "decode",
}

// Valid reports whether s is a defined stage. Spans cross the shard wire
// protocol, so decoders must reject out-of-range stages before they are
// used to index per-stage instruments.
func (s Stage) Valid() bool { return s < numStages }

// String returns the stage's label value in nai_stage_duration_seconds.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one timed segment of a trace. Start is the offset from the
// trace's start; for spans recorded on a shard worker and stitched back
// over the wire (Worker=true) it is the offset from the worker-side
// trace's start — the two clocks are not synchronized, so worker offsets
// nest inside the router's rpc span only approximately.
type Span struct {
	// Stage is the segment's position in the span taxonomy.
	Stage Stage
	// Hop is the propagation hop (≥ 1) for StagePropagate spans, 0
	// otherwise.
	Hop int16
	// Shard is the worker index for fan-out and transport spans, -1
	// otherwise.
	Shard int16
	// Worker marks spans recorded on the worker side of an RPC.
	Worker bool
	// Start is the offset from the owning trace's start.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
}

// MaxSpans bounds the spans one trace retains. The array is inline in
// the Trace so recording never allocates; spans past the cap are
// dropped. 96 covers TMax propagation hops plus the router's transport
// spans with generous slack.
const MaxSpans = 96

// Trace accumulates the spans of one request. Traces are pooled by the
// Ring (no per-request allocation), carried through the stack via
// context.Context, and safe for concurrent span recording. All methods
// are no-ops on a nil receiver, so uninstrumented paths pay one branch.
type Trace struct {
	id    uint64
	start time.Time
	wall  time.Time // wall-clock start, for /debug/traces display
	n     atomic.Int32
	spans [MaxSpans]Span

	// Summary fields, written once by Obs.FinishTrace after all span
	// recording has quiesced.
	tenant  string
	outcome string
	targets int
	total   time.Duration
}

// ID returns the trace id (0 on a nil trace).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Begin marks the start of a span and returns the instant to pass to
// End. On a nil trace it returns the zero Time without reading the
// clock.
func (t *Trace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// End records a span from begin to now. hop tags propagation spans
// (pass 0 otherwise); shard tags fan-out/transport spans (pass -1
// otherwise). No-op on a nil trace or zero begin.
func (t *Trace) End(stage Stage, hop, shard int, begin time.Time) {
	if t == nil || begin.IsZero() {
		return
	}
	t.EndAt(stage, hop, shard, begin, time.Now())
}

// EndAt is End with an explicit end instant, for callers that read the
// clock anyway (the serving layer's queue span, the engine's stage
// boundaries) — one clock read instead of two.
func (t *Trace) EndAt(stage Stage, hop, shard int, begin, now time.Time) {
	if t == nil || begin.IsZero() {
		return
	}
	t.Add(Span{
		Stage: stage,
		Hop:   int16(hop),
		Shard: int16(shard),
		Start: begin.Sub(t.start),
		Dur:   now.Sub(begin),
	})
}

// Add appends a prebuilt span — the router uses it to splice worker-side
// spans decoded off the wire. Spans past MaxSpans are dropped.
func (t *Trace) Add(sp Span) {
	if t == nil {
		return
	}
	if i := int(t.n.Add(1)) - 1; i < MaxSpans {
		t.spans[i] = sp
	}
}

// Spans returns the recorded spans. The slice aliases the trace's
// internal array; callers must not retain it past the trace's life in
// the ring or mutate it.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	n := int(t.n.Load())
	if n > MaxSpans {
		n = MaxSpans
	}
	return t.spans[:n]
}

// reset prepares a pooled trace for reuse. A zero at falls back to the
// clock; hot callers that already hold a fresh time.Now pass it in to
// save the read.
func (t *Trace) reset(id uint64, at time.Time) {
	if at.IsZero() {
		at = time.Now()
	}
	t.id = id
	t.start = at
	t.wall = at
	t.n.Store(0)
	t.tenant = ""
	t.outcome = ""
	t.targets = 0
	t.total = 0
}

type traceKey struct{}

// ContextWithTrace returns a context carrying the trace. A nil trace
// returns ctx unchanged.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
