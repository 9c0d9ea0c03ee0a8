package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Precision tiers of the inference engine. A tier is a kernel-level choice —
// the element type Algorithm 1's propagation runs at — under one engine loop
// (tier.inferBatch in inference.go): PrecisionF64 (the default) propagates in
// float64 straight off the rows the Â operator emits and the feature matrix,
// PrecisionF32 in float32 over those rows rounded as they are emitted and a
// rounded copy of the features. PrecisionInt8 is PrecisionF32 with X^(0)
// stored as int8, one symmetric scale per row — a quarter of f32's copy —
// so only hop 1 differs: it gathers the int8 rows into float32 accumulators,
// each emitted entry of Â multiplied by its column's row scale before it is
// rounded. Every row of every X^(l) is then a function of the graph and the
// features alone, at every tier, so no answer depends on a batch mate. No tier
// holds a lowered copy of Â, nor cuts one per batch: every product is an
// operator product (sparse.MulNormalizedRowsInto) whose workers lower each row
// as they emit it. Decisions, combination, classifiers and the stationary
// state stay float64 at every tier, so the relaxed tiers' drift is confined to
// the propagated features and measured by the precision-equivalence suites.
// Because the loop is shared, the f64 tier's bit-identity to Algorithm 1 is
// guaranteed by the equivalence suites that pin it (seed transcription,
// deltas, memo, shards, cache), not by keeping this file out of its way.

// engine is the engine loop instantiated at one element type:
// *tier[float64] serves the f64 tier, *tier[float32] the f32 and int8 tiers.
type engine interface {
	// infer runs Algorithm 1 over one batch.
	infer(targets []int, opt InferenceOptions, tr *obs.Trace) *Result
	// books is Deployment.Books' propagation term for one batch.
	books(targets, depths []int, tmax int) int
	// patched re-derives the tier's operands after ApplyDelta patched Adj
	// (and a delta may have grown the features), extends every layer to
	// appended nodes and drops the rows the patch made stale.
	patched(valDirty []int)
	scratchBytes() int
}

// operand is the dense half of one product at a tier (the sparse half is Â
// itself): rows flat row-major, as floats of the tier's element type, or — the int8
// tier's X^(0) — as int8 rows q, row i at scales[i]. A level read through its
// index may hold some rows in a hub layer's block, second, which the index
// reaches as −2−k (hopLevel).
type operand[T float64 | float32] struct {
	x, second []T
	q         []int8
	scales    []float64
}

// tier is the per-precision state of the engine loop: hop 1's dense operand,
// the layers at the tier's element type, and the pool of per-request scratch.
// At f64 the dense operand is the feature matrix itself, so the default tier
// builds no mirror; the other tiers hold a lowered copy of it, a pure function
// of Features.
type tier[T float64 | float32] struct {
	d *Deployment
	// base is hop 1's operand, X^{(0)} at the tier.
	base operand[T]
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

// retier builds the engine for the active tier from the current features:
// dense operand lowered, no layer, no pooled scratch.
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

// lower extends hop 1's operand to the deployment's features: at f64 the
// matrix itself, at f32 its rows rounded, at int8 its rows quantized, each at
// its own scale. Rows already lowered are kept — features of existing nodes
// change only under Refresh, which builds a new tier — so a delta lowers the
// rows it appended and nothing else. The copies grow as the features do
// (mat.Extend).
func (t *tier[T]) lower() {
	feat := t.d.Graph.Features
	if t.d.prec != kernel.PrecisionInt8 {
		t.base.x = lowered(feat.Data, t.base.x)
		return
	}
	b, f, old := &t.base, feat.Cols, len(t.base.scales)
	b.q = mat.Extend(b.q, len(feat.Data)-len(b.q))
	b.scales = mat.Extend(b.scales, feat.Rows-old)
	for i := old; i < feat.Rows; i++ {
		b.scales[i] = kernel.QuantizeInto(b.q[i*f:][:f], feat.Row(i))
	}
}

// lowered returns src at element type T: src itself at float64; at float32
// dst, a rounded copy of src's first len(dst) elements, extended by the rest
// of src, each element rounded once.
func lowered[T float64 | float32](src []float64, dst []T) []T {
	if same, ok := any(src).([]T); ok {
		return same
	}
	old := len(dst)
	dst = mat.Extend(dst, len(src)-old)
	for i, v := range src[old:] {
		dst[old+i] = T(v)
	}
	return dst
}

func (t *tier[T]) patched(valDirty []int) {
	t.lower()
	g := t.d.Graph
	for i := range t.layers {
		if m := t.hubs[i].Load(); m != nil {
			// Every hub row: a superset of those within depth−1 hops of
			// valDirty, at most ⌈n/8⌉ rows to recompute.
			m.invalidateAll()
		}
		if m := t.layers[i].Load(); m != nil {
			// Rows of Â the patch left alone are emitted and lowered to the
			// same bits, so X^(h)_v moved only if one within h−1 hops did.
			m.grow(g.N())
			m.invalidate(graph.Ball(g.Adj, valDirty, m.depth-1))
		}
	}
}

// mulRows is one row-subset product with Â at a tier
// (sparse.MulNormalizedRowsInto over in, or MulNormalizedRowsSplitInto when in
// has a second block): out row outRows[k] = (Â·in)[rows[k]], in's rows found
// through colMap (nil: by node id). Algorithm 1's books are Deployment.Books',
// so the product's own count is dropped.
func mulRows[T float64 | float32](adj *sparse.Normalized, in operand[T], rows, outRows []int, colMap []int32, f int, out []T) {
	switch {
	case in.q != nil:
		sparse.MulNormalizedRowsInto(adj, rows, outRows, colMap, in.q, in.scales, f, out)
	case in.second != nil:
		sparse.MulNormalizedRowsSplitInto(adj, rows, outRows, colMap, in.x, in.second, f, out)
	default:
		sparse.MulNormalizedRowsInto(adj, rows, outRows, colMap, in.x, nil, f, out)
	}
}
