package core

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Precision tiers of the inference engine. A tier is a kernel-level choice —
// the element type Algorithm 1's propagation runs at — under one engine loop
// (tier.inferBatch in inference.go): PrecisionF64 (the default) propagates in
// float64 straight off Adj.Val and the feature matrix, PrecisionF32 in
// float32 over rounded copies of both, PrecisionInt8 over their symmetric
// per-tensor quantizations with int32 accumulation, dequantized into a
// float32 slab. Decisions, combination, classifiers and the stationary state
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
	// patched re-derives the tier's operands after PatchAdjacency replaced
	// Adj (and a delta may have grown the features), and drops the memo rows
	// the patch made stale.
	patched(valDirty []int)
	scratchBytes() int
}

// operand is one SpMM's input pair at a tier: the sparse values (aligned
// with the CSR's Val) and the dense rows, flat row-major — as floats of the
// slab's type, or at the int8 tier as symmetric per-tensor quantizations
// with deq, the product of their two scales.
type operand[T float64 | float32] struct {
	vals, x   []T
	qvals, qx []int8
	deq       float64
}

// tier is the per-precision state of the engine loop: the operands hop 1
// multiplies, the hop-1 memo at the slab's element type, and the pool of
// per-request scratch. At f64 the operands are Adj.Val and the feature
// matrix themselves, so the default tier builds no mirror; the other tiers
// hold lowered copies, pure functions of (Adj, Features).
type tier[T float64 | float32] struct {
	d *Deployment
	// base is hop 1's operand pair: Â's values and X^{(0)}, at the tier.
	base operand[T]
	// adjScale is the int8 tier's quantization scale of Â: every later hop
	// dequantizes by adjScale × that hop's activation scale.
	adjScale float64
	memo     hop1Memo[T]
	scratch  sync.Pool // *inferScratch[T]
}

// SetPrecision selects the engine's arithmetic tier. The default (zero
// value) is kernel.PrecisionF64, under which the deployment carries no
// lowered copy of its operands. Like Refresh, SetPrecision must not be called
// concurrently with Infer; a precision switch changes answers, so the
// per-node result cache (if enabled) is flushed, and the hop-1 memo starts
// empty. The graph version does not move: precision is an engine knob, not a
// graph mutation, and sharded serving pins one tier per cluster at handshake
// instead of versioning it.
func (d *Deployment) SetPrecision(p kernel.Precision) {
	if !p.Valid() {
		panic(fmt.Sprintf("core: SetPrecision(%d): unknown tier", int(p)))
	}
	d.prec = p
	d.retier()
	if d.rcache != nil {
		d.rcache.Flush()
	}
}

// Precision reports the active tier.
func (d *Deployment) Precision() kernel.Precision { return d.prec }

// retier builds the engine for the active tier from the current Adj and
// features: operands lowered, memo members selected and empty, no pooled
// scratch. Valid on a deployment with externally supplied state too — the
// operands are pure functions of the Adj and Features its owner maintains.
func (d *Deployment) retier() {
	if d.prec == kernel.PrecisionF64 {
		d.eng = newTier[float64](d)
	} else {
		d.eng = newTier[float32](d)
	}
}

func newTier[T float64 | float32](d *Deployment) *tier[T] {
	t := &tier[T]{d: d}
	t.memo.stats = &d.memoStats
	t.lower()
	t.memo.reset(d.Adj, d.Graph.F(), memoBudget(d.Adj))
	return t
}

func (t *tier[T]) int8() bool { return t.d.prec == kernel.PrecisionInt8 }

// lower derives the base operands from the deployment's Adj and features.
func (t *tier[T]) lower() {
	adj, feat := t.d.Adj.Val, t.d.Graph.Features.Data
	if t.int8() {
		var featScale float64
		t.base.qvals, t.adjScale = kernel.Quantize(adj)
		t.base.qx, featScale = kernel.Quantize(feat)
		t.base.deq = t.adjScale * featScale
		return
	}
	t.base.vals, t.base.x = lowered[T](adj), lowered[T](feat)
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
	if t.int8() {
		// Re-quantizing may move a per-tensor scale, which changes every row.
		t.memo.invalidateAll()
	} else {
		// Rows the patch carried over bitwise lower to the same bits.
		t.memo.invalidate(valDirty)
	}
}

// mulRows is the tier's row-subset SpMM (sparse.MulRowsInto over in).
func (t *tier[T]) mulRows(in operand[T], a *sparse.CSR, rows, outRows []int, f int, out []T) int {
	if t.int8() {
		return sparse.MulRowsInto(a, rows, outRows, in.qvals, in.qx, f, in.deq, out)
	}
	return sparse.MulRowsInto(a, rows, outRows, in.vals, in.x, f, 1, out)
}

// subOperand returns the sparse half of the hops ≥ 2 operand: the values of
// the sub-CSR just cut from rows of Adj (nnz entries), at the tier. The f64
// tier's are the ones ExtractRowsInto copied; the lowered tiers gather theirs
// from the global lowering in the same concatenated row order, so nothing is
// re-lowered per batch and int8 keeps the global scale.
func (t *tier[T]) subOperand(rows []int, nnz int, sc *inferScratch[T]) operand[T] {
	if t.int8() {
		sc.sub8 = growScratch(sc.sub8, nnz)
		gatherRowVals(t.d.Adj, rows, t.base.qvals, sc.sub8)
		return operand[T]{qvals: sc.sub8}
	}
	if vals, ok := any(sc.sub.Val).([]T); ok {
		return operand[T]{vals: vals}
	}
	sc.subVal = growScratch(sc.subVal, nnz)
	gatherRowVals(t.d.Adj, rows, t.base.vals, sc.subVal)
	return operand[T]{vals: sc.subVal}
}

// gatherRowVals copies into dst the entries of vals (aligned with a.Val)
// that belong to the given rows, concatenated in row order.
func gatherRowVals[E any](a *sparse.CSR, rows []int, vals, dst []E) {
	n := 0
	for _, r := range rows {
		n += copy(dst[n:], vals[a.RowPtr[r]:a.RowPtr[r+1]])
	}
}

// quantizeActivations quantizes the previous hop's buffer for the int8
// tier's next product: one symmetric per-tensor scale over exactly the live
// activation tensor — liveRows, the rows that hop wrote (nil = all of S) —
// into pooled scratch. Rows outside liveRows keep stale bytes, but the SpMM
// never reads them: every column a hop multiplies lies within the previous
// hop's ball. The scan and rounding are O(live·f) data movement, not
// multiply-accumulates, so no MACs are charged (they do count toward FP
// time). Returns the quantized buffer and the hop's dequantization factor.
func (t *tier[T]) quantizeActivations(prev []T, liveRows []int, sc *inferScratch[T]) ([]int8, float64) {
	x := any(prev).([]float32) // the int8 tier's slab
	f := sc.f
	sc.x8 = growScratch(sc.x8, len(x))
	if liveRows == nil {
		return sc.x8, t.adjScale * kernel.QuantizeF32Into(sc.x8, x)
	}
	var maxAbs float64
	for _, r := range liveRows {
		maxAbs = max(maxAbs, kernel.MaxAbsF32(x[r*f:r*f+f]))
	}
	scale := kernel.ScaleFor(maxAbs)
	for _, r := range liveRows {
		kernel.QuantizeF32AtScale(sc.x8[r*f:r*f+f], x[r*f:r*f+f], scale)
	}
	return sc.x8, t.adjScale * scale
}
