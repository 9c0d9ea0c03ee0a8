package shard

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/obs"
)

// TestWireRoundTrip: every message type must decode back to exactly what was
// encoded — including float64 bit patterns (negative zero, subnormals, huge
// magnitudes), since the bit-identity guarantee crosses the wire with them.
func TestWireRoundTrip(t *testing.T) {
	req := &InferRequest{
		Version: 7,
		Targets: []int{0, 5, 1 << 30},
		Opt: core.InferenceOptions{Mode: core.ModeDistance, Ts: 1.0 / 3.0,
			TMin: 1, TMax: 4, BatchSize: 128},
		Precision: kernel.PrecisionInt8,
		TraceID:   0xdeadbeef,
	}
	gotReq, err := decodeInferRequest(encodeInferRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("InferRequest: %+v != %+v", gotReq, req)
	}

	res := &core.Result{
		Pred:          []int{1, 0, 3},
		Depths:        []int{2, 1, 4},
		NodesPerDepth: []int{0, 10, 20, 5},
		TotalTime:     123 * time.Microsecond,
		FPTime:        45 * time.Microsecond,
		NumTargets:    3,
	}
	spans := []obs.Span{
		{Stage: obs.StageBFS, Shard: 2, Start: 10 * time.Microsecond, Dur: 30 * time.Microsecond},
		{Stage: obs.StagePropagate, Hop: 3, Shard: 2, Start: 40 * time.Microsecond, Dur: 55 * time.Microsecond},
	}
	gotRes, gotSpans, err := decodeResult(encodeResult(res, spans))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, gotRes) {
		t.Fatalf("Result: %+v != %+v", gotRes, res)
	}
	if !reflect.DeepEqual(spans, gotSpans) {
		t.Fatalf("spans: %+v != %+v", gotSpans, spans)
	}

	// A span-free result (uninstrumented worker) round-trips with nil spans.
	gotRes2, gotSpans2, err := decodeResult(encodeResult(res, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, gotRes2) || gotSpans2 != nil {
		t.Fatalf("span-free result: %+v spans %+v", gotRes2, gotSpans2)
	}

	feat := mat.New(2, 3)
	copy(feat.Data, []float64{0, math.Copysign(0, -1), 1.0 / 3.0,
		-math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-308})
	sd := &ShardDelta{Version: 9, Delta: graph.Delta{
		Features: feat,
		Labels:   []int{0, 1},
		Src:      []int{0, 1 << 40, 5},
		Dst:      []int{1, 0, 6},
	}}
	gotSD, err := decodeShardDelta(encodeShardDelta(sd))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sd, gotSD) {
		t.Fatalf("ShardDelta: %+v != %+v", gotSD, sd)
	}
	for i := range feat.Data {
		if math.Float64bits(gotSD.Delta.Features.Data[i]) != math.Float64bits(feat.Data[i]) {
			t.Fatalf("feature bits drifted at %d", i)
		}
	}

	// An edges-only delta (the common case) round-trips with a nil matrix.
	bare := &ShardDelta{Version: 2, Delta: graph.Delta{Src: []int{3}, Dst: []int{4}}}
	gotBare, err := decodeShardDelta(encodeShardDelta(bare))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, gotBare) {
		t.Fatalf("bare ShardDelta: %+v != %+v", gotBare, bare)
	}

	h := HealthInfo{Nodes: 100, GlobalNodes: 300,
		Version: 17, ScratchBytes: 1 << 20, Precision: kernel.PrecisionF32,
		Hop1: core.Hop1Stats{FromMemo: 1 << 40, Computed: 7, Invalidated: 3, Entries: 99, Capacity: 100, Bytes: 100 * 132}}
	gotH, err := decodeHealthInfo(encodeHealthInfo(h))
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Fatalf("HealthInfo: %+v != %+v", gotH, h)
	}

	we, err := decodeWireError(encodeWireError(errKindStale, 3, 5, "behind"))
	if err != nil {
		t.Fatal(err)
	}
	if we.kind != errKindStale || we.have != 3 || we.want != 5 || we.msg != "behind" {
		t.Fatalf("wireError: %+v", we)
	}

	if err := decodeAck(encodeAck()); err != nil {
		t.Fatal(err)
	}
}

// TestWireRejectsBadPayloads: wrong magic/version/type, truncation at every
// byte boundary, trailing garbage, and hostile length prefixes must all fail
// with an error — never panic, never allocate unboundedly.
func TestWireRejectsBadPayloads(t *testing.T) {
	good := encodeInferRequest(&InferRequest{Version: 1, Targets: []int{1, 2, 3}})

	if _, err := decodeInferRequest([]byte("XXXX\x01\x01rest")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := decodeInferRequest([]byte("NAIW\x63\x01")); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, _, err := decodeResult(good); err == nil {
		t.Fatal("wrong message type accepted")
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeInferRequest(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeInferRequest(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A request naming a precision tier this build does not know must be
	// rejected at decode, before it reaches a worker.
	badTier := encodeInferRequest(&InferRequest{Version: 1, Targets: []int{1},
		Precision: kernel.Precision(9)})
	if _, err := decodeInferRequest(badTier); err == nil {
		t.Fatal("unknown precision tier accepted")
	}

	// A hostile count: header + uvarint(2^40) with no elements behind it.
	hostile := appendHeader(nil, msgResult)
	hostile = appendUint(hostile, 1<<40)
	if _, _, err := decodeResult(hostile); err == nil {
		t.Fatal("hostile count accepted")
	}

	// A result whose span list names a stage outside the taxonomy must be
	// rejected at decode — it would otherwise index per-stage instruments.
	badStage := encodeResult(&core.Result{Pred: []int{1}, Depths: []int{1}, NumTargets: 1},
		[]obs.Span{{Stage: obs.Stage(200)}})
	if _, _, err := decodeResult(badStage); err == nil {
		t.Fatal("unknown span stage accepted")
	}

	// A hostile feature shape in a delta.
	hd := appendHeader(nil, msgDelta)
	hd = appendUint(hd, 1)    // version
	hd = appendInt(hd, 1<<30) // rows
	hd = appendInt(hd, 1<<30) // cols
	if _, err := decodeShardDelta(hd); err == nil {
		t.Fatal("hostile feature shape accepted")
	}
	hd2 := appendHeader(nil, msgDelta)
	hd2 = appendUint(hd2, 1)
	hd2 = appendInt(hd2, -1)
	hd2 = appendInt(hd2, 4)
	if _, err := decodeShardDelta(hd2); err == nil {
		t.Fatal("negative feature shape accepted")
	}
	// A shape whose element product wraps uint64 (2^32 · 2^32 = 2^64 ≡ 0)
	// must not slip past the allocation bound.
	hd3 := appendHeader(nil, msgDelta)
	hd3 = appendUint(hd3, 1)
	hd3 = appendInt(hd3, 1<<32)
	hd3 = appendInt(hd3, 1<<32)
	if _, err := decodeShardDelta(hd3); err == nil {
		t.Fatal("overflowing feature shape accepted")
	}
}

// TestWireRejectsV4Frame: a version-4 msgInfer frame — two more integers
// between the batch size and the precision tier than later versions — must
// fail on the version byte, not be read field-shifted into a different
// request.
func TestWireRejectsV4Frame(t *testing.T) {
	b := append([]byte(wireMagic), 4, msgInfer)
	b = appendUint(b, 1)           // version
	b = appendInts(b, []int{1, 2}) // targets
	b = appendInt(b, int(core.ModeDistance))
	b = appendFloat(b, 0.5)
	b = appendInt(b, 1) // TMin
	b = appendInt(b, 2) // TMax
	b = appendInt(b, 0) // BatchSize
	b = appendInt(b, 0) // v4: Workers
	b = appendInt(b, 0) // v4: flags
	b = appendInt(b, int(kernel.PrecisionF64))
	b = appendUint(b, 0) // trace id
	requireVersionRejected(t, 4, func() error { _, err := decodeInferRequest(b); return err })
}

// TestWireRejectsV5Frame: a version-5 msgResult frame numbers its span stages
// with batch assembly at 1, where version 6 has BFS. Byte for byte it would
// decode, so it must fail on the version byte rather than report an
// assembly span as a BFS one.
func TestWireRejectsV5Frame(t *testing.T) {
	b := resultFrame(5, true, 1) // v5 stage 1: assemble
	requireVersionRejected(t, 5, func() error { _, _, err := decodeResult(b); return err })
	if _, spans, err := decodeResult(resultFrame(wireVersion, false, 1)); err != nil || len(spans) != 1 || spans[0].Stage != obs.StageBFS {
		t.Fatalf("same span at v%d: spans %v err %v, want one bfs span", wireVersion, spans, err)
	}
}

// resultFrame is a one-target msgResult frame at format version v with one
// span at the given stage; macs adds the five MAC counts versions before 10
// carried after the depth histogram.
func resultFrame(v byte, macs bool, stage int) []byte {
	b := append([]byte(wireMagic), v, msgResult)
	b = appendInts(b, []int{1})    // preds
	b = appendInts(b, []int{1})    // depths
	b = appendInts(b, []int{0, 1}) // nodes per depth
	if macs {
		for i := 0; i < 5; i++ {
			b = appendInt(b, 0) // v9 and before: the MAC breakdown
		}
	}
	for i := 0; i < 3; i++ {
		b = appendInt(b, 0) // TotalTime, FPTime, NumTargets
	}
	b = appendUint(b, 1) // one span
	b = appendInt(b, stage)
	b = appendInt(b, 0)  // hop
	b = appendInt(b, -1) // shard
	b = appendInt(b, 0)  // start
	return appendInt(b, int(time.Microsecond))
}

// TestWireRejectsV6Frame: a version-6 msgDelta frame carries a halo plan —
// new degrees and local-id edges, then the stationary scalars, weighted sum,
// degree patches and dirty rows — after the same feature block and labels
// version 7 starts with, and a version-6 msgHealth frame carries the halo
// radius after the partition width. Both must fail on the version byte.
func TestWireRejectsV6Frame(t *testing.T) {
	d := append([]byte(wireMagic), 6, msgDelta)
	d = appendUint(d, 2)           // version
	d = appendInt(d, 0)            // feature rows
	d = appendInt(d, 0)            // feature cols
	d = appendInts(d, nil)         // labels
	d = appendUint(d, 0)           // v6: new degrees
	d = appendInts(d, []int{0})    // src, local ids
	d = appendInts(d, []int{1})    // dst, local ids
	d = appendFloat(d, 0.5)        // v6: scale
	d = appendInt(d, 4)            // v6: SumMACs
	d = appendUint(d, 0)           // v6: weighted sum
	d = appendInts(d, nil)         // v6: degree indices
	d = appendUint(d, 0)           // v6: degree values
	d = appendInts(d, []int{0, 1}) // v6: dirty rows
	requireVersionRejected(t, 6, func() error { _, err := decodeShardDelta(d); return err })

	h := append([]byte(wireMagic), 6, msgHealth)
	for _, v := range []int{0, 2, 2, 100, 100} { // shard, width, v6 radius, nodes, global nodes
		h = appendInt(h, v)
	}
	h = appendUint(h, 1) // version
	for i := 0; i < 8; i++ {
		h = appendInt(h, 0) // scratch, six layer counters, precision
	}
	requireVersionRejected(t, 6, func() error { _, err := decodeHealthInfo(h); return err })
}

// TestWireRejectsV7Frame: a version-7 msgResult frame numbers its span stages
// with the router's merge at 7, where version 8 has encode. Byte for byte it
// would decode, so it must fail on the version byte rather than report a
// merge span as an encode one.
func TestWireRejectsV7Frame(t *testing.T) {
	b := resultFrame(7, true, 7) // v7 stage 7: merge
	requireVersionRejected(t, 7, func() error { _, _, err := decodeResult(b); return err })
	if _, spans, err := decodeResult(resultFrame(wireVersion, false, 7)); err != nil || len(spans) != 1 || spans[0].Stage != obs.StageEncode {
		t.Fatalf("same span at v%d: spans %v err %v, want one encode span", wireVersion, spans, err)
	}
}

// TestWireRejectsV8Frame: a version-8 msgHealth frame leads with the
// worker's shard id and partition width, two integers version 9 dropped.
// Read as version 9 they would shift every field, so the frame must fail
// on the version byte; the same fields without them decode at version 9.
func TestWireRejectsV8Frame(t *testing.T) {
	h := append([]byte(wireMagic), 8, msgHealth)
	h = appendInt(h, 1) // v8: shard id
	h = appendInt(h, 2) // v8: partition width
	fields := func(b []byte) []byte {
		b = appendInt(b, 100) // nodes
		b = appendInt(b, 100) // global nodes
		b = appendUint(b, 1)  // version
		for i := 0; i < 8; i++ {
			b = appendInt(b, 0) // scratch, six layer counters, precision
		}
		return b
	}
	h = fields(h)
	requireVersionRejected(t, 8, func() error { _, err := decodeHealthInfo(h); return err })
	if got, err := decodeHealthInfo(fields(appendHeader(nil, msgHealth))); err != nil ||
		got.Nodes != 100 || got.GlobalNodes != 100 || got.Version != 1 {
		t.Fatalf("same fields at v%d: %+v, %v", wireVersion, got, err)
	}
}

// TestWireRejectsV9Frame: a version-9 msgResult frame carries five MAC counts
// after the depth histogram, which version 10 dropped. Read as version 10 they
// would shift the times, target count and spans, so the frame must fail on
// the version byte; the same frame without them decodes at version 10.
func TestWireRejectsV9Frame(t *testing.T) {
	b := resultFrame(9, true, int(obs.StageBFS))
	requireVersionRejected(t, 9, func() error { _, _, err := decodeResult(b); return err })
	res, spans, err := decodeResult(resultFrame(wireVersion, false, int(obs.StageBFS)))
	if err != nil || len(res.Pred) != 1 || len(spans) != 1 || spans[0].Stage != obs.StageBFS {
		t.Fatalf("same frame without the MACs at v%d: %+v spans %v err %v", wireVersion, res, spans, err)
	}
}

// requireVersionRejected asserts that decode fails on a frame's format
// version v, naming the version this build speaks.
func requireVersionRejected(t *testing.T, v int, decode func() error) {
	t.Helper()
	want := fmt.Sprintf("format version %d, want %d", v, wireVersion)
	if err := decode(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v%d frame: err = %v, want %q", v, err, want)
	}
}

// FuzzWireDecode throws arbitrary bytes at every decoder; the contract under
// fuzzing is simply no panic and no runaway allocation (the count bound).
func FuzzWireDecode(f *testing.F) {
	f.Add(encodeInferRequest(&InferRequest{Version: 1, Targets: []int{0, 1}}))
	f.Add(encodeResult(&core.Result{Pred: []int{1}, Depths: []int{2}, NumTargets: 1},
		[]obs.Span{{Stage: obs.StageBFS, Dur: time.Millisecond}}))
	f.Add(encodeShardDelta(&ShardDelta{Version: 2, Delta: graph.Delta{Src: []int{0}, Dst: []int{1}}}))
	f.Add(encodeHealthInfo(HealthInfo{Nodes: 2, GlobalNodes: 2, Version: 1}))
	f.Add(encodeHealthInfo(HealthInfo{Nodes: 5, GlobalNodes: 4, Version: 9, Precision: kernel.PrecisionInt8,
		Hop1: core.Hop1Stats{FromMemo: 1 << 33, Computed: 5, Invalidated: 2, Entries: 3, Capacity: 4, Bytes: 4 * 68}}))
	f.Add(encodeWireError(errKindStale, 1, 2, "x"))
	f.Add(encodeAck())
	f.Add(encodeShardDelta(&ShardDelta{Version: 3, Delta: graph.Delta{
		Features: mat.FromRows([][]float64{{1, -2}, {0.5, 3}}), Labels: []int{1, 0},
		Src: []int{4, 5}, Dst: []int{0, 4}}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = decodeInferRequest(b)
		_, _, _ = decodeResult(b)
		_, _ = decodeShardDelta(b)
		_, _ = decodeHealthInfo(b)
		_, _ = decodeWireError(b)
		_ = decodeAck(b)
	})
}
