package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Precision tiers of the inference engine. A tier is a kernel-level choice —
// the element type Algorithm 1's propagation runs at — under one engine loop
// (tier.inferBatch in inference.go): PrecisionF64 (the default) propagates in
// float64 straight off the rows the Â operator emits and the feature matrix,
// PrecisionF32 in float32 over those rows rounded as they are emitted and a
// rounded copy of the features, PrecisionInt8 over their symmetric per-tensor
// quantizations with int32 accumulation, dequantized into a float32 slab. No
// tier holds a lowered copy of Â, nor cuts one per batch: every product is an
// operator product (sparse.MulNormalizedRowsInto) whose workers lower each row
// as they emit it, at a scale (int8) that is a property of the whole operator.
// Decisions, combination, classifiers and the stationary state
// stay float64 at every tier, so the relaxed tiers' drift is confined to the
// propagated features and measured by the precision-equivalence suites.
// Because the loop is shared, the f64 tier's bit-identity to Algorithm 1 is
// guaranteed by the equivalence suites that pin it (seed transcription,
// deltas, memo, shards, cache), not by keeping this file out of its way.

// engine is the engine loop instantiated at one slab element type:
// *tier[float64] serves the f64 tier, *tier[float32] the f32 and int8 tiers.
type engine interface {
	// infer runs Algorithm 1 over one batch.
	infer(targets []int, opt InferenceOptions, tr *obs.Trace) *Result
	// patched re-derives the tier's operands after ApplyDelta patched Adj
	// (and a delta may have grown the features), extends every layer to
	// appended nodes and drops the rows the patch made stale.
	patched(valDirty []int)
	scratchBytes() int
}

// operand is the dense half of one product at a tier (the sparse half is Â
// itself): rows flat row-major, as floats of the slab's type, or at the int8
// tier as a symmetric per-tensor quantization with deq, the product of its
// scale and the operator's.
type operand[T float64 | float32] struct {
	x   []T
	qx  []int8
	deq float64
}

// tier is the per-precision state of the engine loop: hop 1's dense operand,
// the layers at the slab's element type, and the pool of per-request scratch.
// At f64 the dense operand is the feature matrix itself, so the default tier
// builds no mirror; the other tiers hold a lowered copy of it, a pure function
// of Features.
type tier[T float64 | float32] struct {
	d *Deployment
	// base is hop 1's operand, X^{(0)} at the tier (at int8 with deq =
	// adjScale × the features' scale).
	base operand[T]
	// adjScale is the int8 tier's quantization scale of Â, max|Â|/127 found
	// by one pass over the operator: every emitted row is quantized at it, and
	// every later hop dequantizes by adjScale × that hop's activation scale.
	adjScale float64
	// layers[h] is the depth-h layer (hopLayer) and hubs[l] the depth-l hub
	// layer, each nil until a batch first reads that depth; alloc serializes
	// the allocations.
	layers, hubs []atomic.Pointer[hopLayer[T]]
	alloc        sync.Mutex
	scratch      sync.Pool // *inferScratch[T]
}

// SetPrecision selects the engine's arithmetic tier. The default (zero
// value) is kernel.PrecisionF64, under which the deployment carries no
// lowered copy of its operands. Like Refresh, SetPrecision must not be called
// concurrently with Infer; a precision switch changes answers, so it belongs
// before the deployment is handed to a serving layer that caches them
// (internal/serve owns the result cache and is not told), and the engine
// starts with no layer. The graph version does not move: precision is an engine knob,
// not a graph mutation, and sharded serving pins one tier per cluster at
// handshake instead of versioning it.
func (d *Deployment) SetPrecision(p kernel.Precision) {
	if !p.Valid() {
		panic(fmt.Sprintf("core: SetPrecision(%d): unknown tier", int(p)))
	}
	d.prec = p
	d.retier()
}

// Precision reports the active tier.
func (d *Deployment) Precision() kernel.Precision { return d.prec }

// retier builds the engine for the active tier from the current Adj and
// features: dense operand lowered, no layer, no pooled scratch. Valid on a deployment with externally supplied state too — the
// operands are pure functions of the Adj and Features its owner maintains.
func (d *Deployment) retier() {
	if d.prec == kernel.PrecisionF64 {
		d.eng = newTier[float64](d)
	} else {
		d.eng = newTier[float32](d)
	}
}

func newTier[T float64 | float32](d *Deployment) *tier[T] {
	t := &tier[T]{d: d, layers: make([]atomic.Pointer[hopLayer[T]], d.Model.K+1),
		hubs: make([]atomic.Pointer[hopLayer[T]], d.Model.K+1)}
	// The previous engine's layers go with it.
	s := &d.memoStats
	s.invalidated.Add(uint64(s.entries.Swap(0)))
	s.capacity.Store(0)
	s.bytes.Store(0)
	t.lower()
	return t
}

func (t *tier[T]) int8() bool { return t.d.prec == kernel.PrecisionInt8 }

// lower derives hop 1's operand from the deployment's features and, at int8,
// the scale every row of Adj is quantized at.
func (t *tier[T]) lower() {
	feat := t.d.Graph.Features.Data
	if t.int8() {
		var featScale float64
		t.adjScale = kernel.ScaleFor(t.d.Adj.MaxAbs())
		t.base.qx, featScale = kernel.Quantize(feat)
		t.base.deq = t.adjScale * featScale
		return
	}
	t.base.x = lowered[T](feat)
}

// lowered returns src at element type T: src itself at float64, a copy
// rounded once per element at float32.
func lowered[T float64 | float32](src []float64) []T {
	if same, ok := any(src).([]T); ok {
		return same
	}
	dst := make([]T, len(src))
	for i, v := range src {
		dst[i] = T(v)
	}
	return dst
}

func (t *tier[T]) patched(valDirty []int) {
	t.lower()
	g := t.d.Graph
	for i := range t.layers {
		if m := t.hubs[i].Load(); m != nil {
			// Every hub row: a superset of those within depth−1 hops of
			// valDirty, at most ⌈n/64⌉ rows to recompute.
			m.invalidateAll()
		}
		m := t.layers[i].Load()
		if m == nil {
			continue
		}
		m.grow(g.N())
		if t.int8() {
			// Re-quantizing may move a per-tensor scale, which changes every row.
			m.invalidateAll()
		} else {
			// Rows of Â the patch left alone are emitted and lowered to the
			// same bits, so X^(h)_v moved only if one within h−1 hops did.
			m.invalidate(graph.Ball(g.Adj, valDirty, m.depth-1))
		}
	}
}

// mulRows is one row-subset product with Â at a tier
// (sparse.MulNormalizedRowsInto over in, at int8 quantizing Â's rows at
// adjScale): out row outRows[k] = (Â·in)[rows[k]], in's rows found through
// colMap (nil: by node id). The engine's MACs are Algorithm 1's books, so the
// product's own count is dropped.
func mulRows[T float64 | float32](adj *sparse.Normalized, adjScale float64, in operand[T], rows, outRows []int, colMap []int32, f int, out []T) {
	if in.qx != nil {
		sparse.MulNormalizedRowsInto(adj, rows, outRows, colMap, adjScale, in.qx, f, in.deq, out)
		return
	}
	sparse.MulNormalizedRowsInto(adj, rows, outRows, colMap, 0, in.x, f, 1, out)
}

// quantizeActivations quantizes the previous hop's rows for the int8 tier's
// next product: one symmetric per-tensor scale over exactly the live
// activation tensor — the rows of the nodes in live, which that hop wrote, or
// for hop 2 the X^(1) rows of the batch's whole radius-(TMax−1) ball — into
// pooled scratch laid out by sc.toLocal, which at this tier indexes the ring
// behind S. prev's rows are found as the product would find them: through
// rowOf, or by node id when it is nil. Places of nodes outside live keep stale
// bytes, but the SpMM never reads them: every column a hop multiplies lies
// within the previous hop's ball. The scan and rounding are O(live·f) data
// movement, not multiply-accumulates, so no MACs are charged (they do count
// toward FP time). Returns the quantized buffer and the hop's dequantization
// factor.
func (t *tier[T]) quantizeActivations(prev []T, rowOf []int32, sc *inferScratch[T], live ...[]int) ([]int8, float64) {
	x, f := any(prev).([]float32), sc.f // the int8 tier's slab
	row := func(v int) []float32 {
		if rowOf != nil {
			v = int(rowOf[v])
		}
		return x[v*f:][:f]
	}
	var maxAbs float64
	for _, list := range live {
		for _, v := range list {
			maxAbs = max(maxAbs, kernel.MaxAbsF32(row(v)))
		}
	}
	scale := kernel.ScaleFor(maxAbs)
	sc.x8 = growScratch(sc.x8, (sc.s+len(sc.ring))*f)
	for _, list := range live {
		for _, v := range list {
			kernel.QuantizeAtScale(sc.x8[int(sc.toLocal[v])*f:][:f], row(v), scale)
		}
	}
	return sc.x8, t.adjScale * scale
}
