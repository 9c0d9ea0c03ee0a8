package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/obs"
)

// The shard wire format: a length-agnostic binary codec for the messages
// that cross the router↔worker HTTP boundary. Every message is
//
//	magic "NAIW" | format version (1 byte) | message type (1 byte) | payload
//
// with integers as varints (unsigned counts/ids as uvarint, signed values
// zigzag), float64s as fixed 8-byte little-endian IEEE bits (the codec must
// round-trip exact bits — the sharded bit-identity guarantee crosses the
// wire with them), and slices as a uvarint count followed by the elements.
// Decoding is allocation-bounded: every count is checked against the bytes
// actually remaining before a slice is allocated, so a hostile or truncated
// payload fails fast instead of ballooning the heap.

const wireMagic = "NAIW"

// wireVersion 2 added the precision tier to msgInfer and msgHealth (and the
// errKindPrecision conflict); version 3 added the trace id to msgInfer and
// the worker-side span list to msgResult (end-to-end tracing across the
// router↔worker boundary); version 4 added the X^(1)-layer counters to
// msgHealth; version 5 dropped two engine options from msgInfer that the
// engine no longer has; version 6 renumbered the span stages in msgResult
// when the serving layer's batch-assembly stage went; version 7 made
// msgDelta the version plus the graph delta itself (workers hold the whole
// graph) and dropped the halo radius from msgHealth; version 8 renumbered
// the span stages after fanout in msgResult when the router's merge stage
// went; version 9 dropped the shard id and partition width from msgHealth
// when the router stopped partitioning; version 10 dropped the five MAC
// counts from msgResult when the serving entry stopped keeping the paper's
// books (core.Deployment.Books computes them from an answer); version 11
// renumbered the span stages after bfs in msgResult when the engine's extract
// stage went. A peer speaking an older version is
// rejected at decode, which is the right failure for a router and worker
// that disagree on the format.
const wireVersion = 11

// message types
const (
	msgInfer  = 1 // router → worker: InferRequest
	msgResult = 2 // worker → router: core.Result
	msgDelta  = 3 // router → worker: ShardDelta
	msgHealth = 4 // worker → router: HealthInfo
	msgError  = 5 // worker → router: structured error (stale version)
	msgAck    = 6 // worker → router: delta applied
)

// error kinds carried by msgError
const (
	errKindStale     = 1
	errKindPrecision = 4 // worker serves a different precision tier (409)
)

// wireError is the decoded form of a msgError payload.
type wireError struct {
	kind       int
	have, want uint64
	msg        string
}

func appendHeader(b []byte, msgType byte) []byte {
	b = append(b, wireMagic...)
	return append(b, wireVersion, msgType)
}

// checkHeader validates magic/version/type and returns the payload.
func checkHeader(b []byte, msgType byte) ([]byte, error) {
	if len(b) < len(wireMagic)+2 || string(b[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("shard wire: bad magic")
	}
	if v := b[len(wireMagic)]; v != wireVersion {
		return nil, fmt.Errorf("shard wire: format version %d, want %d", v, wireVersion)
	}
	if t := b[len(wireMagic)+1]; t != msgType {
		return nil, fmt.Errorf("shard wire: message type %d, want %d", t, msgType)
	}
	return b[len(wireMagic)+2:], nil
}

func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendInts(b []byte, v []int) []byte {
	b = appendUint(b, uint64(len(v)))
	for _, x := range v {
		b = appendInt(b, x)
	}
	return b
}

// dec is a bounds-checked wire decoder; the first failure sticks and every
// subsequent read returns zero values, so decode functions check err once.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("shard wire: "+format, args...)
	}
}

func (d *dec) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *dec) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads a slice length and rejects any count that could not possibly
// fit in the remaining bytes at elemSize bytes per element — the bound that
// keeps a hostile length prefix from allocating gigabytes.
func (d *dec) count(elemSize int) int {
	n := d.uint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)/elemSize) {
		d.fail("count %d exceeds remaining payload (%d bytes)", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *dec) ints() []int {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = d.int()
	}
	return v
}

func (d *dec) bytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// done verifies the payload was consumed exactly.
func (d *dec) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

func encodeInferRequest(req *InferRequest) []byte {
	b := appendHeader(nil, msgInfer)
	b = appendUint(b, req.Version)
	b = appendInts(b, req.Targets)
	b = appendInt(b, int(req.Opt.Mode))
	b = appendFloat(b, req.Opt.Ts)
	b = appendInt(b, req.Opt.TMin)
	b = appendInt(b, req.Opt.TMax)
	b = appendInt(b, req.Opt.BatchSize)
	b = appendInt(b, int(req.Precision))
	return appendUint(b, req.TraceID)
}

func decodeInferRequest(b []byte) (*InferRequest, error) {
	p, err := checkHeader(b, msgInfer)
	if err != nil {
		return nil, err
	}
	d := &dec{b: p}
	req := &InferRequest{Version: d.uint(), Targets: d.ints()}
	req.Opt.Mode = core.Mode(d.int())
	req.Opt.Ts = d.float()
	req.Opt.TMin = d.int()
	req.Opt.TMax = d.int()
	req.Opt.BatchSize = d.int()
	req.Precision = kernel.Precision(d.int())
	if !req.Precision.Valid() {
		d.fail("unknown precision tier %d", int(req.Precision))
	}
	req.TraceID = d.uint()
	if err := d.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// encodeResult serializes one shard answer plus the worker-side trace
// spans recorded while computing it (nil when the worker runs without
// observability). Each span is five varints: stage, hop, shard, start
// offset and duration in nanoseconds.
func encodeResult(res *core.Result, spans []obs.Span) []byte {
	b := appendHeader(nil, msgResult)
	b = appendInts(b, res.Pred)
	b = appendInts(b, res.Depths)
	b = appendInts(b, res.NodesPerDepth)
	b = appendInt(b, int(res.TotalTime))
	b = appendInt(b, int(res.FPTime))
	b = appendInt(b, res.NumTargets)
	b = appendUint(b, uint64(len(spans)))
	for _, sp := range spans {
		b = appendInt(b, int(sp.Stage))
		b = appendInt(b, int(sp.Hop))
		b = appendInt(b, int(sp.Shard))
		b = appendInt(b, int(sp.Start))
		b = appendInt(b, int(sp.Dur))
	}
	return b
}

func decodeResult(b []byte) (*core.Result, []obs.Span, error) {
	p, err := checkHeader(b, msgResult)
	if err != nil {
		return nil, nil, err
	}
	d := &dec{b: p}
	res := &core.Result{
		Pred:          d.ints(),
		Depths:        d.ints(),
		NodesPerDepth: d.ints(),
	}
	res.TotalTime = time.Duration(d.int())
	res.FPTime = time.Duration(d.int())
	res.NumTargets = d.int()
	spans := d.spans()
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return res, spans, nil
}

// spans decodes a worker span list. Stages are validated before the spans
// reach anything that indexes per-stage instruments by them — a hostile
// stage value must fail the decode, not panic the router.
func (d *dec) spans() []obs.Span {
	n := d.count(5) // ≥ 5 bytes per span (five varints)
	if d.err != nil || n == 0 {
		return nil
	}
	spans := make([]obs.Span, n)
	for i := range spans {
		sp := &spans[i]
		sp.Stage = obs.Stage(d.int())
		if d.err == nil && !sp.Stage.Valid() {
			d.fail("unknown span stage %d", int(sp.Stage))
			return nil
		}
		sp.Hop = int16(d.int())
		sp.Shard = int16(d.int())
		sp.Start = time.Duration(d.int())
		sp.Dur = time.Duration(d.int())
	}
	return spans
}

// encodeShardDelta serializes a delta as its version, the appended
// features (rows, cols, then the row-major values), labels and edge list.
func encodeShardDelta(sd *ShardDelta) []byte {
	b := appendHeader(nil, msgDelta)
	b = appendUint(b, sd.Version)
	rows, cols := 0, 0
	if f := sd.Delta.Features; f != nil {
		rows, cols = f.Rows, f.Cols
	}
	b = appendInt(b, rows)
	b = appendInt(b, cols)
	if rows > 0 {
		for _, v := range sd.Delta.Features.Data[:rows*cols] {
			b = appendFloat(b, v)
		}
	}
	b = appendInts(b, sd.Delta.Labels)
	b = appendInts(b, sd.Delta.Src)
	return appendInts(b, sd.Delta.Dst)
}

func decodeShardDelta(b []byte) (*ShardDelta, error) {
	p, err := checkHeader(b, msgDelta)
	if err != nil {
		return nil, err
	}
	d := &dec{b: p}
	sd := &ShardDelta{Version: d.uint()}
	rows, cols := d.int(), d.int()
	if d.err == nil {
		switch {
		case rows < 0 || cols < 0:
			d.fail("negative feature shape %dx%d", rows, cols)
		case rows > 0 && cols > 0:
			// Bound each dimension before their product: rows*cols can wrap
			// for hostile shapes around 2^33, and rows ≤ maxElems makes the
			// division check exact (rows*cols > maxElems ⇔ cols > maxElems/rows)
			// with no multiplication to overflow.
			if maxElems := len(d.b) / 8; rows > maxElems || cols > maxElems/rows {
				d.fail("feature matrix %dx%d exceeds remaining payload (%d bytes)", rows, cols, len(d.b))
				break
			}
			m := mat.New(rows, cols)
			for i := range m.Data {
				m.Data[i] = d.float()
			}
			sd.Delta.Features = m
		}
	}
	sd.Delta.Labels = d.ints()
	sd.Delta.Src = d.ints()
	sd.Delta.Dst = d.ints()
	if err := d.done(); err != nil {
		return nil, err
	}
	return sd, nil
}

func encodeHealthInfo(h HealthInfo) []byte {
	b := appendHeader(nil, msgHealth)
	b = appendInt(b, h.Nodes)
	b = appendInt(b, h.GlobalNodes)
	b = appendUint(b, h.Version)
	b = appendInt(b, h.ScratchBytes)
	b = appendUint(b, h.Hop1.FromMemo)
	b = appendUint(b, h.Hop1.Computed)
	b = appendUint(b, h.Hop1.Invalidated)
	b = appendInt(b, h.Hop1.Entries)
	b = appendInt(b, h.Hop1.Capacity)
	b = appendInt(b, h.Hop1.Bytes)
	return appendInt(b, int(h.Precision))
}

func decodeHealthInfo(b []byte) (HealthInfo, error) {
	p, err := checkHeader(b, msgHealth)
	if err != nil {
		return HealthInfo{}, err
	}
	d := &dec{b: p}
	h := HealthInfo{Nodes: d.int(), GlobalNodes: d.int(), Version: d.uint()}
	h.ScratchBytes = d.int()
	h.Hop1 = core.Hop1Stats{FromMemo: d.uint(), Computed: d.uint(), Invalidated: d.uint(),
		Entries: d.int(), Capacity: d.int(), Bytes: d.int()}
	h.Precision = kernel.Precision(d.int())
	if !h.Precision.Valid() {
		d.fail("unknown precision tier %d", int(h.Precision))
	}
	if err := d.done(); err != nil {
		return HealthInfo{}, err
	}
	return h, nil
}

func encodeWireError(kind int, have, want uint64, msg string) []byte {
	b := appendHeader(nil, msgError)
	b = appendInt(b, kind)
	b = appendUint(b, have)
	b = appendUint(b, want)
	b = appendUint(b, uint64(len(msg)))
	return append(b, msg...)
}

func decodeWireError(b []byte) (wireError, error) {
	p, err := checkHeader(b, msgError)
	if err != nil {
		return wireError{}, err
	}
	d := &dec{b: p}
	e := wireError{kind: d.int(), have: d.uint(), want: d.uint()}
	e.msg = string(d.bytes())
	if err := d.done(); err != nil {
		return wireError{}, err
	}
	return e, nil
}

func encodeAck() []byte { return appendHeader(nil, msgAck) }

func decodeAck(b []byte) error {
	p, err := checkHeader(b, msgAck)
	if err != nil {
		return err
	}
	if len(p) != 0 {
		return fmt.Errorf("shard wire: %d trailing bytes in ack", len(p))
	}
	return nil
}
