package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Mode selects the node-adaptive propagation module for inference.
type Mode int

const (
	// ModeFixed disables NAP: every node propagates to T_max and is
	// classified by f^{(T_max)} (vanilla Scalable-GNN inference, and the
	// "NAI w/o NAP" ablation when T_max < K).
	ModeFixed Mode = iota
	// ModeDistance is NAP_d: exit when ‖X^{(l)}_i − X(∞)_i‖ < T_s (Eq. 9).
	ModeDistance
	// ModeGate is NAP_g: exit when gate l's first logit wins (Eq. 13).
	ModeGate
)

// String names the mode for reports.
func (m Mode) String() string {
	switch m {
	case ModeFixed:
		return "fixed"
	case ModeDistance:
		return "distance"
	case ModeGate:
		return "gate"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode reads a mode by its String name and checks tsQuantile, the
// validation-distance quantile distance mode's T_s tuner indexes the sorted
// distances with, is in [0, 1]. The commands call it on their flags before
// training, so a typo fails the launch.
func ParseMode(name string, tsQuantile float64) (Mode, error) {
	if !(tsQuantile >= 0 && tsQuantile <= 1) {
		return 0, fmt.Errorf("-ts-quantile %v outside [0, 1]", tsQuantile)
	}
	for _, m := range []Mode{ModeFixed, ModeDistance, ModeGate} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (fixed, distance, gate)", name)
}

// InferenceOptions are Algorithm 1's operating point (Mode, T_s, T_min,
// T_max) plus the evaluation protocol's batch size.
type InferenceOptions struct {
	Mode Mode
	// Ts is the distance threshold of NAP_d (ignored by other modes).
	Ts float64
	// TMin and TMax bound the personalized propagation depth (1 ≤ TMin ≤ TMax ≤ K).
	TMin, TMax int
	// BatchSize splits the targets; ≤0 means one batch.
	BatchSize int
}

// Validate checks the options against a model.
func (o InferenceOptions) Validate(m *Model) error {
	if o.TMin < 1 || o.TMin > o.TMax || o.TMax > m.K {
		return fmt.Errorf("core: need 1 ≤ TMin(%d) ≤ TMax(%d) ≤ K(%d)", o.TMin, o.TMax, m.K)
	}
	if o.Mode == ModeGate && m.Gates == nil && o.TMax > o.TMin {
		return fmt.Errorf("core: gate mode requires trained gates")
	}
	return nil
}

// decides reports whether Algorithm 1's lines 9–13 run at depth l: an exit
// wave may come before T_max.
func (o InferenceOptions) decides(l int) bool {
	return l >= o.TMin && l < o.TMax && o.Mode != ModeFixed
}

// batches splits nodes as the engine serves them: BatchSize at a time, or
// all in one batch when BatchSize ≤ 0.
func (o InferenceOptions) batches(nodes []int) [][]int {
	return graph.Batches(nodes, cmp.Or(max(o.BatchSize, 0), len(nodes), 1))
}

// MACBreakdown counts multiply-accumulate operations per procedure,
// matching the paper's evaluation protocol (§IV-A).
type MACBreakdown struct {
	// Stationary is the stationary-state cost, charged per batch as in
	// Algorithm 1 line 2. The engine actually computes the global weighted
	// sum once per deployment (see Deployment), so wall-clock time no
	// longer pays this term, but MACs keep the paper's accounting.
	Stationary     int
	Propagation    int // sparse feature propagation over supporting rows
	Decision       int // distance computation or gate evaluation
	Combine        int // model-specific feature combination (S²GC/GAMLP)
	Classification int // classifier GEMMs
}

// Total sums all procedures.
func (b MACBreakdown) Total() int {
	return b.Stationary + b.Propagation + b.Decision + b.Combine + b.Classification
}

// FeatureProcessing is the paper's "FP MACs": propagation plus the
// distance/gate procedure.
func (b MACBreakdown) FeatureProcessing() int { return b.Propagation + b.Decision }

// Add accumulates another breakdown field-wise (the baselines' batch merges).
func (b *MACBreakdown) Add(o MACBreakdown) {
	b.Stationary += o.Stationary
	b.Propagation += o.Propagation
	b.Decision += o.Decision
	b.Combine += o.Combine
	b.Classification += o.Classification
}

// Result aggregates one inference run.
type Result struct {
	// Pred[i] is the predicted class of targets[i].
	Pred []int
	// Depths[i] is the personalized propagation depth used for targets[i].
	Depths []int
	// NodesPerDepth[l] counts targets classified at depth l (1..K).
	NodesPerDepth []int
	MACs          MACBreakdown // Books of Depths under Infer; zero from InferContext
	// TotalTime sums per-batch serving time: stationary-row
	// materialization, supporting-node sampling, propagation, decisions,
	// combination and classification.
	TotalTime time.Duration
	// FPTime covers propagation and decisions only (the paper's "FP Time").
	FPTime     time.Duration
	NumTargets int
}

// Merge appends o, the result of the next batch, to r: its predictions and
// depths after r's, and its counts, MACs and times added to r's.
func (r *Result) Merge(o *Result) {
	r.Pred = append(r.Pred, o.Pred...)
	r.Depths = append(r.Depths, o.Depths...)
	for l := range o.NodesPerDepth {
		r.NodesPerDepth[l] += o.NodesPerDepth[l]
	}
	r.MACs.Add(o.MACs)
	r.TotalTime += o.TotalTime
	r.FPTime += o.FPTime
	r.NumTargets += o.NumTargets
}

// Deployment is a model served against a full graph (which now includes
// the unseen test nodes). It owns the normalized adjacency — held implicitly,
// as the graph's own pattern plus two degree-factor vectors (one slice at
// γ = ½), never as a matrix — and the cached stationary state, computed once
// at construction (and on Refresh) instead of per batch. All per-request state lives in
// pooled scratch, the rows a batch computes in one level per depth, by node
// id; rows of Â are never materialized anywhere — every product
// is an operator product whose workers emit a row, use it and drop it — and
// the cached state is read-only during inference, so Infer is safe for
// concurrent callers; the one thing Infer writes on the deployment is its
// layers (hopLayer): X^(h) for the depth h = max(1, TMax−2) of each operating
// point served, a row per node in one block of the feature matrix's shape,
// allocated on the first read at that depth, filled on first use and read in
// place by hop h+1, and past TMax 2 the hubs' rows of X^(h+1), which hops h+1
// and h+2 read in place instead of computing — each row with a ready bit that readers load
// without a lock, written under one lock per layer, emptied and extended by
// deltas and cleared by Refresh. Answers are
// bit-identical to propagating hops 1..h+1 per batch.
//
// Every precision tier runs the same engine loop (tier.inferBatch),
// instantiated at the tier's element type. What pins the default f64 tier to
// Algorithm 1 bit for bit is therefore not a separate code path but the
// equivalence suites: the seed transcription (inference_equiv_test.go), the
// delta and memo suites, and their shard, cache and serving counterparts.
type Deployment struct {
	Model *Model
	Graph *graph.Graph
	// Adj is the γ-normalized adjacency of the full serving graph: an
	// operator over Graph.Adj, its degree factors from Graph.Adj's rows.
	Adj *sparse.Normalized

	// stationary caches ComputeStationary's global weighted sum; batches
	// only materialize their target rows from it (O(b·f), not O(n·f)).
	stationary *Stationary

	// version counts graph mutations (Refresh and every effective delta),
	// so serving layers can tell whether cached per-node answers were
	// computed against the current graph. Monotone, never reset.
	version atomic.Uint64

	// prec is the active arithmetic tier (SetPrecision) and eng the engine
	// loop instantiated for it (precision.go): a *tier[float64] at f64, a
	// *tier[float32] at f32 and int8. It holds the tier's operands, layers
	// and scratch pool, and is rebuilt by Refresh and SetPrecision.
	prec kernel.Precision
	eng  engine

	// memoStats counts the layers' traffic across every engine this
	// deployment has had (Hop1Stats).
	memoStats hop1Counters
}

// NewDeployment prepares a model for serving on g, computing the
// normalized adjacency and the stationary state once.
func NewDeployment(m *Model, g *graph.Graph) (*Deployment, error) {
	if g.F() != m.FeatureDim {
		return nil, fmt.Errorf("core: graph feature dim %d != model %d", g.F(), m.FeatureDim)
	}
	if g.NumClasses != m.NumClasses {
		return nil, fmt.Errorf("core: graph classes %d != model %d", g.NumClasses, m.NumClasses)
	}
	d := &Deployment{Model: m, Graph: g}
	d.Refresh()
	return d, nil
}

// Refresh recomputes the cached normalized adjacency and stationary state
// after in-place mutations of the serving graph (new edges or features).
// It must not be called concurrently with Infer.
func (d *Deployment) Refresh() {
	d.stationary = ComputeStationary(d.Graph.Adj, d.Graph.Features, d.Model.Gamma)
	d.Adj = sparse.NewNormalized(d.Graph.Adj, d.Model.Gamma)
	d.retier()
	// A full rebuild means the caller mutated the graph arbitrarily behind
	// the deployment's back: the version moves, whatever changed.
	d.version.Add(1)
}

// Stationary returns the cached stationary state X(∞) of the serving graph.
func (d *Deployment) Stationary() *Stationary { return d.stationary }

// DistanceQuantile returns the q-quantile (0 ≤ q ≤ 1) of the stationary
// distances Δ^(l)_v = ‖X^(l)_v − X(∞)_v‖ (Eq. 8) over nodes, l ≥ 1 — the value
// a distance-mode T_s is tuned to on a validation split — indexed as
// int(q·(len−1)) into the ascending distances; 0 for no nodes. X^(l) is
// computed at float64 whatever the serving tier, as a layer fill computes it:
// hop j over the nodes' radius-(l−j) ball — so no Â is materialized and
// nothing outside the ball is read; each distance is
// bit-equal to one taken from a full-graph propagation. It returns an error,
// and reads nothing, for a node outside [0, N), l outside [1, K] or q
// outside [0, 1]. Must not run concurrently with ApplyDelta.
func (d *Deployment) DistanceQuantile(nodes []int, l int, q float64) (float64, error) {
	if l < 1 || l > d.Model.K {
		return 0, fmt.Errorf("core: distance depth %d outside [1, %d]", l, d.Model.K)
	}
	if !(q >= 0 && q <= 1) {
		return 0, fmt.Errorf("core: distance quantile %v outside [0, 1]", q)
	}
	n := d.Graph.N()
	for _, v := range nodes {
		if v < 0 || v >= n {
			return 0, fmt.Errorf("core: node %d outside [0, %d)", v, n)
		}
	}
	if len(nodes) == 0 {
		return 0, nil
	}
	f := d.Graph.F()
	uniq := sortedUnique(nodes, nil)
	x := make([]float64, len(uniq)*f)
	in, colMap := (&hopScratch[float64]{}).below(d.Adj, operand[float64]{x: d.Graph.Features.Data}, uniq, l, f)
	mulRows(d.Adj, in, uniq, nil, colMap, f, x)
	at := make([]int, len(nodes))
	for i, v := range nodes {
		at[i] = sort.SearchInts(uniq, v)
	}
	xl := mat.FromData(len(uniq), f, x).GatherRows(at)
	dist := mat.RowDistances(xl, d.stationary.Rows(nodes))
	sort.Float64s(dist)
	return dist[int(q*float64(len(dist)-1))], nil
}

// sortedUnique returns nodes sorted ascending without duplicates, in dst
// (reused when its capacity suffices).
func sortedUnique(nodes, dst []int) []int {
	dst = append(dst[:0], nodes...)
	slices.Sort(dst)
	return slices.Compact(dst)
}

// inferScratch is the per-request mutable state of Algorithm 1 at one tier's
// element type. Pooling it keeps Deployment's cached state read-only
// (concurrency) and keeps the row stores, the O(n) BFS buffers and the
// gathered-row matrices out of the per-batch allocation churn (zero-recompute
// serving).
//
// Memory note: a batch keeps every row it computes in its levels
// (hopScratch), one per depth but h, by node id: its targets' rows below h,
// the rows of the hops below h its layer fills computed, and, past h, hop l's
// rows over the radius-(TMax−l) ball of the targets active at l — hops 1..h
// being the deployment's depth-h layer. Beside them it holds one BFS's rings
// and sorted balls (the batch's latest past h) and the fills', a BFS bitset of
// n/4 bytes (graph.NewBitset), a bitset of n/8 bytes marking the layer rows
// the batch has read, and one O(n) int32 node→row index per level. Peak
// memory therefore scales with concurrently executing batches × their balls,
// not with the serving graph.
// All ball-sized buffers — the levels (hopScratch.shrink), the BFSes' rings
// and balls (rings.shrink), the row lists (growScratch) and the
// decide/classify arena (arena.shrink) — follow one retention policy
// (oversized): they grow geometrically across pool hits and drop back to
// current need when a past batch left them more than 4× oversized, so one huge
// request does not pin worst-case capacity forever. Every tier holds the same
// buffers, at its element type.
type inferScratch[T float64 | float32] struct {
	// hopScratch holds the rows the batch computes, by depth and node id
	// (levels; none at h, whose rows are the layer's); its set is also the
	// bitset of the batch's own BFSes.
	hopScratch[T]
	// bfs is the batch's latest BFS, around the targets active then, and
	// Books'.
	bfs rings
	// sorted is the active targets' node ids, ascending without duplicates.
	// compute lists the rows of one product at hop h+1 that no ready hub row
	// covers.
	sorted, compute []int
	f               int
	// h is the depth of the layer the batch reads and xh its block, rows by
	// node id; the targets are kept for reading their depth-h rows out of it.
	// xh and targets are nil between batches.
	h       int
	xh      []T
	targets []int
	// rm marks batch-local target indices during removeIndices.
	rm []bool
	// fresh lists the hubs whose rows one product at hop h+1 computes.
	fresh []int
	// seen marks the layer rows the batch has read, one bit per node, all zero
	// between batches; missing lists the ones one ensureLayer pass found not
	// ready.
	seen    []uint64
	missing []int
	// arena backs the transient gathered-row matrices of decide/classify.
	arena arena
}

// rings is one level-ordered BFS (graph.Levels) with its inner balls sorted
// (graph.SortedBalls), in buffers reused from batch to batch.
type rings struct {
	// ball and ends are the BFS in ring order: ring r is ball[ends[r−1]:ends[r]],
	// and nnz[r] the entries of the adjacency in its rows.
	ball, ends, nnz []int
	// balls[r] is the radius-r ball, sorted, for r ≤ the k run was given;
	// sorted backs them.
	balls  [][]int
	sorted []int
	// hw is the most ids a BFS since the last shrink held.
	hw int
}

// run BFSes from sources out to radius and sorts the balls of radius ≤ k.
func (rg *rings) run(adj *sparse.CSR, sources []int, radius, k int, set []uint64) {
	rg.ball, rg.ends, rg.nnz = graph.Levels(adj, sources, radius, set, rg.ball, rg.ends, rg.nnz)
	rg.sorted, rg.balls = graph.SortedBalls(rg.ball, rg.ends[:k+1], set, rg.sorted, rg.balls)
	rg.hw = max(rg.hw, len(rg.ball)+len(rg.sorted))
}

// books returns, in dst, Algorithm 1's books of the BFS: dst[r] is the
// entries of Â in the rows of the radius-r ball, charged per feature to the
// hop that propagates over it — the adjacency's entries the BFS counted ring
// by ring, plus the ball's diagonal.
func (rg *rings) books(dst []int) []int {
	dst, nnz := dst[:0], 0
	for r, end := range rg.ends {
		nnz += rg.nnz[r]
		dst = append(dst, nnz+end)
	}
	return dst
}

// shrink applies the scratch retention policy between batches to the id
// lists, against what any BFS since the last shrink needed.
func (rg *rings) shrink() {
	if oversized(cap(rg.ball)+cap(rg.sorted), rg.hw) {
		rg.ball, rg.sorted = nil, nil
	}
	rg.hw = 0
}

func (rg *rings) bytes() int {
	return capBytes(rg.ball) + capBytes(rg.ends) + capBytes(rg.nnz) + capBytes(rg.sorted) + capBytes(rg.balls)
}

// minRetain is the capacity below which a scratch buffer is always kept:
// retention that small is too cheap to fight.
const minRetain = 1024

// oversized is the scratch retention rule: a pooled buffer of the given
// capacity is dropped when it holds more than 4× what was needed since it was
// last checked, so one huge batch does not pin worst-case capacity forever.
func oversized(capacity, need int) bool { return capacity > 4*need && capacity > minRetain }

// growScratch resizes a scratch buffer to need elements: grown geometrically
// when too small, dropped back to need when oversized, reused as-is
// otherwise. Contents are not preserved.
func growScratch[T any](buf []T, need int) []T {
	c := cap(buf)
	switch {
	case c < need:
		return make([]T, need, sparse.GrownCap(c, need))
	case oversized(c, need):
		return make([]T, need)
	default:
		return buf[:need]
	}
}

// targetRow returns row targets[ti] of X^(l), l ≥ 1: at h from the layer's
// block, elsewhere through the batch's level — its own rows, or at h+1 a hub
// layer's that it reads in place.
func (sc *inferScratch[T]) targetRow(l, ti int) []T {
	v := sc.targets[ti]
	if l == sc.h {
		return sc.xh[v*sc.f:][:sc.f]
	}
	return sc.levels[l].row(v, sc.f)
}

// prepare readies a scratch (fresh or from the pool) for a batch on an
// n-node graph: the graph-sized bitsets are in place, the last batch's rows
// are dropped, and the arena's, the levels' and the BFS lists' retention
// policy is applied.
func (sc *inferScratch[T]) prepare(n, batch int) {
	sc.bitset(n)
	if len(sc.seen) < (n+63)/64 {
		sc.seen = make([]uint64, (n+63)/64)
	}
	if len(sc.rm) < batch {
		sc.rm = make([]bool, batch)
	}
	sc.arena.shrink()
	sc.hopScratch.reset()
	sc.hopScratch.shrink()
	sc.bfs.shrink()
}

// capBytes is the retained heap capacity of one buffer.
func capBytes[E any](buf []E) int { return cap(buf) * int(unsafe.Sizeof(*new(E))) }

// bytes reports the retained heap capacity of the scratch (benchmarks track
// it to prove per-batch memory scales with the batch's balls, not n).
func (sc *inferScratch[T]) bytes() int {
	return capBytes(sc.rm) + capBytes(sc.sorted) + capBytes(sc.compute) +
		capBytes(sc.fresh) + capBytes(sc.seen) + capBytes(sc.missing) + capBytes(sc.arena.buf) +
		sc.bfs.bytes() + sc.hopScratch.bytes()
}

// arena is a bump allocator for matrices that live only within one
// decide or classify call. Matrices are handed out uninitialized; callers
// fully overwrite every row they take.
type arena struct {
	buf []float64
	off int
	// hw is the high-water offset since the last shrink, so pooled
	// scratches can drop an arena a past batch left oversized.
	hw int
}

func (a *arena) reset() { a.off = 0 }

func (a *arena) matrix(r, c int) *mat.Matrix {
	n := r * c
	if a.off+n > len(a.buf) {
		// Outstanding matrices keep the old buffer alive; new requests
		// carve from a fresh, larger one.
		a.buf = make([]float64, 2*(a.off+n))
		a.off = 0
	}
	m := mat.FromData(r, c, a.buf[a.off:a.off+n])
	a.off += n
	if a.off > a.hw {
		a.hw = a.off
	}
	return m
}

// shrink applies the scratch retention policy between requests, against the
// high water of the last window.
func (a *arena) shrink() {
	if oversized(len(a.buf), a.hw) {
		a.buf = make([]float64, a.hw)
	}
	a.off, a.hw = 0, 0
}

// ScratchBytes reports the retained capacity in bytes of one pooled
// inferScratch (the most recently released), approximating the scratch
// memory one in-flight batch holds. Benchmarks and tests use it to track
// that per-batch memory scales with supporting-set size, not graph size.
func (d *Deployment) ScratchBytes() int { return d.eng.scratchBytes() }

// Infer runs Algorithm 1 over the targets in batches, one after another,
// aggregates, and keeps the paper's books: InferContext followed by Books of
// its depths into Result.MACs. It is safe for concurrent callers on one
// Deployment.
func (d *Deployment) Infer(targets []int, opt InferenceOptions) (*Result, error) {
	res, err := d.InferContext(context.Background(), targets, opt)
	if err == nil {
		res.MACs, err = d.Books(targets, opt, res.Depths)
	}
	return res, err
}

// InferContext is the serving entry: Infer without the books (Result.MACs
// stays zero), with a context. The engine does not observe cancellation (a
// batch in flight runs to completion); the context only carries an obs.Trace,
// into which each batch's stages record spans: propagate per hop — none for a
// hop below the layer whose rows nothing reads, two for a hop between the
// layer and TMax that decides (its active targets' rows, then, after its
// wave's decide and classify spans, the rest of its survivors' ball) — decide,
// classify, and at most one bfs, for the hop between the layer and TMax
// (inferBatch): none at a depth ≤ h.
func (d *Deployment) InferContext(ctx context.Context, targets []int, opt InferenceOptions) (*Result, error) {
	if err := opt.Validate(d.Model); err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	agg := &Result{NodesPerDepth: make([]int, d.Model.K+1)}
	for _, batch := range opt.batches(targets) {
		agg.Merge(d.eng.infer(batch, opt, tr))
	}
	return agg, nil
}

// Books is Algorithm 1's MAC ledger (§IV-A) when targets[i] exits at
// depths[i], in InferContext's batches: per batch the stationary term (not in
// ModeFixed) and, per hop l, f × Â's entries plus diagonal in the
// radius-(TMax−l) ball around the targets exiting at l or later; per target a
// decision at each deciding depth up to its own, its combination and its
// classifier. Must not run concurrently with ApplyDelta.
func (d *Deployment) Books(targets []int, opt InferenceOptions, depths []int) (MACBreakdown, error) {
	var b MACBreakdown
	if err := opt.Validate(d.Model); err != nil {
		return b, err
	}
	if len(depths) != len(targets) {
		return b, fmt.Errorf("core: %d depths for %d targets", len(depths), len(targets))
	}
	m, f, st := d.Model, d.Graph.F(), d.stationary
	for i, l := range depths {
		if l != opt.TMax && !opt.decides(l) {
			return b, fmt.Errorf("core: target %d exits at depth %d, where %+v never exits", targets[i], l, opt)
		}
		for e := opt.TMin; e <= l && opt.decides(e); e++ {
			if opt.Mode == ModeGate {
				b.Decision += m.Gates[e].MACsPerRow()
			} else {
				b.Decision += f
			}
		}
		b.Combine += m.Combiner.MACsPerRow(l, f)
		b.Classification += m.Classifiers[l].MACsPerRow()
	}
	depthBatches := opt.batches(depths)
	for k, batch := range opt.batches(targets) {
		if opt.Mode != ModeFixed {
			b.Stationary += st.SumMACs + len(batch)*st.RowMACs()
		}
		b.Propagation += d.eng.books(batch, depthBatches[k], opt.TMax) * f
	}
	return b, nil
}

// books is Books' propagation term of one batch per feature, from BFSes on a
// pooled scratch: one at hop 1 and one after each depth a target exits at.
func (t *tier[T]) books(targets, depths []int, tmax int) (entries int) {
	sc := t.get(len(targets))
	defer t.scratch.Put(sc)
	var sources, perRadius []int
	for l := 1; l <= slices.Max(depths); l++ {
		if l == 1 || slices.Contains(depths, l-1) {
			sources = sources[:0]
			for i, v := range targets {
				if depths[i] >= l {
					sources = append(sources, v)
				}
			}
			sc.bfs.run(t.d.Graph.Adj, sources, tmax-l, 0, sc.set)
			perRadius = sc.bfs.books(perRadius)
		}
		entries += perRadius[tmax-l]
	}
	return entries
}

// get takes a scratch from the pool, readied for a batch of the given size.
func (t *tier[T]) get(batch int) *inferScratch[T] {
	sc, _ := t.scratch.Get().(*inferScratch[T])
	if sc == nil {
		sc = &inferScratch[T]{}
	}
	sc.prepare(t.d.Graph.N(), batch)
	return sc
}

// infer runs one batch on a pooled scratch.
func (t *tier[T]) infer(targets []int, opt InferenceOptions, tr *obs.Trace) *Result {
	sc := t.get(len(targets))
	defer t.scratch.Put(sc)
	return t.inferBatch(targets, opt, sc, tr)
}

// scratchBytes is Deployment.ScratchBytes for this engine's pool.
func (t *tier[T]) scratchBytes() int {
	sc, _ := t.scratch.Get().(*inferScratch[T])
	if sc == nil {
		return 0
	}
	b := sc.bytes()
	t.scratch.Put(sc)
	return b
}

// inferBatch is Algorithm 1 for one batch V_b — the engine's one hop loop,
// at every tier. Every row the batch computes it keeps in its level of that
// depth (hopScratch.levels), by node id, and a level skips the rows it holds,
// so no hop computes a row twice and no set is indexed twice. Propagation runs
// at the tier's element type T; stationary rows, exit decisions, combination
// and classifiers are float64 at every tier, so a relaxed tier's drift is
// confined to the propagated features. The int8 tier differs only in hop 1's
// operand (precision.go), which the loop does not see: every row it computes
// is a function of the graph and the features, so a target's answer is the
// same whatever batch it is served in.
//
// Hops 1..h are not hops of the batch: X^(h) is the deployment's layer
// (hopLayer, h = layerDepth(TMax)), whose block hop h+1 gathers from as hop 1
// would from X^(0). At h the batch reads its active targets' rows there, and
// each product of hop h+1 makes ready the layer rows it gathers (ensureLayer
// over its rows' columns). Below h the batch needs only its active targets'
// own rows, for their exits and classifiers, and computes them from X^(0) at
// the depths a decision or a classifier's combiner reads (an SGC model past
// TMin reads none). At h = 1, every TMax ≤ 3, there is nothing below h.
//
// Past h, the hops run in demand order over the radius-(TMax−l) ball of the
// targets active at l, the rows hop l+1 gathers: a hop l < TMax that decides
// first computes only its active targets' rows, which its wave reads, and
// computes the rest of its survivors' ball only after the wave; hop TMax
// computes its active targets' rows. Exited targets' balls are never
// propagated. So a BFS runs only for a hop past h before TMax, which needs a
// ball: before it if it does not decide, after its wave if that leaves
// survivors; none runs at a depth ≤ h, and a batch runs at most one. Hop
// h+1 < TMax computes none of the hubs' rows it finds resident in the tier's
// hub layer (hopLayer): its level refers to them there, where its waves and
// hop h+2 = TMax read them, and it publishes the ones it computes.
func (t *tier[T]) inferBatch(targets []int, opt InferenceOptions, sc *inferScratch[T], tr *obs.Trace) *Result {
	d := t.d
	m := d.Model
	g := d.Graph
	res := &Result{
		Pred:          make([]int, len(targets)),
		Depths:        make([]int, len(targets)),
		NodesPerDepth: make([]int, m.K+1),
		NumTargets:    len(targets),
	}
	start := time.Now()

	// Line 2: stationary rows for the batch (skipped entirely without
	// NAP), from the global weighted sum cached on the deployment.
	var xinf *mat.Matrix // stationary rows aligned with `targets`
	if opt.Mode != ModeFixed {
		xinf = d.stationary.Rows(targets)
	}

	// active[i] indexes into `targets`.
	active := make([]int, len(targets))
	for i := range active {
		active[i] = i
	}

	h := layerDepth(opt.TMax)
	lay := t.layer(h)
	sc.h, sc.xh, sc.targets, sc.f = h, lay.block, targets, g.F()
	sc.sorted = growScratch(sc.sorted, len(targets))
	defer func() {
		clear(sc.seen)
		sc.xh, sc.targets = nil, nil
	}()
	mark := time.Now() // the last stage boundary read (stageEnd)
	var fpTime time.Duration

	// reads reports whether anything reads the targets' depth-l rows: the
	// classifier of a depth e ≥ l some target may exit at, whose combiner
	// reads from depth l or below — e = l whenever the decision at l reads them.
	reads := func(l int) bool {
		for e := l; e <= opt.TMax; e++ {
			if (opt.decides(e) || e == opt.TMax) && m.Combiner.LowestDepth(e) <= l {
				return true
			}
		}
		return false
	}

	// sorted returns the active targets' node ids, ascending without
	// duplicates.
	sorted := func() []int {
		sc.sorted = sc.sorted[:0]
		for _, i := range active {
			sc.sorted = append(sc.sorted, targets[i])
		}
		slices.Sort(sc.sorted)
		sc.sorted = slices.Compact(sc.sorted)
		return sc.sorted
	}

	// wave is lines 6–17 at depth l once its active targets' rows are in place:
	// decide and classify the early exits, or at T_max everyone left.
	wave := func(l int) {
		if l == opt.TMax { // Lines 16-17
			classify(l, m, g, targets, active, res, sc)
			mark = stageEnd(tr, obs.StageClassify, 0, mark)
			active = nil
			return
		}
		if !opt.decides(l) { // Lines 6-7, or no NAP
			return
		}
		// Lines 9-13.
		decStart := mark
		exit := decide(l, m, xinf, active, opt, sc)
		mark = stageEnd(tr, obs.StageDecide, 0, mark)
		fpTime += mark.Sub(decStart)
		if len(exit) == 0 {
			return
		}
		classify(l, m, g, targets, exit, res, sc)
		mark = stageEnd(tr, obs.StageClassify, 0, mark)
		active = removeIndices(active, exit, sc.rm)
	}

	// ball is lines 3/5 for hop h < l < TMax: the radius-(TMax−l) ball of the
	// targets active now, sorted, from one level-ordered multi-source BFS
	// around them (sampling counts in Time, not FP). h = max(1, TMax−2) leaves
	// one such hop, which calls ball once: before it if it does not decide,
	// after its wave if it does.
	ball := func(l int) []int {
		r := opt.TMax - l
		sc.bfs.run(g.Adj, sorted(), r, r, sc.set)
		mark = stageEnd(tr, obs.StageBFS, 0, mark)
		return sc.bfs.balls[r]
	}

	// product computes into level l, l > h, hop l's rows of the given nodes
	// (ascending) that it does not hold yet: at h+1 from the layer's block,
	// which it first makes ready where those rows gather, past it from level
	// l−1, which holds every row they gather — its rows are a ball one ring
	// wider around a superset of the targets, some of them at h+1 hub rows it
	// reads in the hub layer's block. Hop h+1 < TMax also fills the hub layer;
	// the ready hub rows it refers to gather nothing.
	hubs := h+1 < opt.TMax
	product := func(l int, rows []int) {
		lv := sc.level(l, g.N())
		var hub *hopLayer[T]
		if hubs && l == h+1 {
			hub = t.hubLayer(l)
			sc.compute, sc.fresh = hub.hubRows(rows, lv, growScratch(sc.compute, len(rows))[:0], sc.fresh[:0])
			rows = sc.compute
		}
		rows = lv.add(rows, sc.f)
		in, colMap := operand[T]{x: sc.xh}, []int32(nil)
		if l == h+1 {
			t.ensureLayer(sc, lay, rows, true)
		} else {
			lower := &sc.levels[l-1]
			in, colMap = operand[T]{x: lower.x, second: lower.hub}, lower.idx
		}
		mulRows(d.Adj, in, rows, nil, colMap, sc.f, lv.x[len(lv.x)-len(rows)*sc.f:])
		if hub != nil {
			hub.publishHubs(sc.fresh, lv)
		}
	}

	for l := 1; l <= opt.TMax && len(active) > 0; l++ {
		if l < h && !reads(l) {
			continue // no row of the batch's is read at l
		}
		// The rows the wave at l reads — its active targets' — or, at a hop
		// past h before TMax that does not decide, the ball the next hop reads.
		var rows []int
		if l > h && l < opt.TMax && !opt.decides(l) {
			rows = ball(l)
		} else {
			rows = sorted()
		}
		fpStart := mark
		switch {
		case l < h:
			in, colMap := sc.below(d.Adj, t.base, rows, l, sc.f)
			sc.level(l, g.N()).extend(d.Adj, in, colMap, rows, sc.f)
		case l == h:
			t.ensureLayer(sc, lay, rows, false)
		default:
			product(l, rows)
		}
		mark = stageEnd(tr, obs.StagePropagate, l, mark)
		fpTime += mark.Sub(fpStart)

		wave(l)
		if l > h && opt.decides(l) && len(active) > 0 {
			// Demand order: the rest of the survivors' ball.
			rows = ball(l)
			fpStart = mark
			product(l, rows)
			mark = stageEnd(tr, obs.StagePropagate, l, mark)
			fpTime += mark.Sub(fpStart)
		}
	}
	res.TotalTime = mark.Sub(start)
	res.FPTime = fpTime
	return res
}

// stageEnd reads the clock once at the boundary closing a stage that began at
// begin, records the stage's span from the two readings, and returns the
// reading: the next stage's begin. Spans, FPTime and TotalTime are therefore
// differences of the same readings.
func stageEnd(tr *obs.Trace, stage obs.Stage, hop int, begin time.Time) time.Time {
	now := time.Now()
	tr.EndAt(stage, hop, -1, begin, now)
	return now
}

// widen copies a propagated row into a float64 one (a plain copy at the f64
// tier): the model's dense layers and the exit statistics are float64 at
// every tier.
func widen[T float64 | float32](dst []float64, src []T) {
	for j, v := range src {
		dst[j] = float64(v)
	}
}

// decide returns the subset of active (indices into targets) that exits at
// depth l. The depth-l rows come through targetRow — at h the layer's block,
// elsewhere the batch's level — and are compared in float64.
func decide[T float64 | float32](l int, m *Model, xinf *mat.Matrix, active []int,
	opt InferenceOptions, sc *inferScratch[T]) []int {

	var exit []int
	switch opt.Mode {
	case ModeDistance:
		// ∆^{(l)}_i = ‖X^{(l)}_i − X(∞)_i‖ < T_s  (Eqs. 8-9)
		for _, ti := range active {
			ref := xinf.Row(ti)
			var s float64
			for j, v := range sc.targetRow(l, ti) {
				diff := float64(v) - ref[j]
				s += diff * diff
			}
			if s < opt.Ts*opt.Ts {
				exit = append(exit, ti)
			}
		}
	case ModeGate:
		gate := m.Gates[l]
		sc.arena.reset()
		xlRows := sc.arena.matrix(len(active), sc.f)
		xinfRows := sc.arena.matrix(len(active), sc.f)
		for k, ti := range active {
			widen(xlRows.Row(k), sc.targetRow(l, ti))
			copy(xinfRows.Row(k), xinf.Row(ti))
		}
		for k, ex := range gate.Decide(xlRows, xinfRows) {
			if ex {
				exit = append(exit, active[k])
			}
		}
	}
	return exit
}

// classify predicts the given target indices with classifier f^{(l)}. It
// fills the stack from the combiner's lowest depth read up to l, the entries
// below nil: depth-0 features from the full-graph matrix, depths ≥ 1 through
// targetRow — the layer's block at h, the batch's levels elsewhere.
func classify[T float64 | float32](l int, m *Model, g *graph.Graph, targets []int, idx []int,
	res *Result, sc *inferScratch[T]) {

	if len(idx) == 0 {
		return
	}
	sc.arena.reset()
	stack := make([]*mat.Matrix, l+1)
	for j := m.Combiner.LowestDepth(l); j <= l; j++ {
		stack[j] = sc.arena.matrix(len(idx), sc.f)
		for i, ti := range idx {
			if j == 0 {
				copy(stack[j].Row(i), g.Features.Row(targets[ti]))
			} else {
				widen(stack[j].Row(i), sc.targetRow(j, ti))
			}
		}
	}
	input := m.Combiner.Combine(stack, l)
	clf := m.Classifiers[l]
	pred := clf.Predict(input)
	for k, ti := range idx {
		res.Pred[ti] = pred[k]
		res.Depths[ti] = l
	}
	res.NodesPerDepth[l] += len(idx)
}

// removeIndices returns active minus the removal set, preserving order. rm
// is a caller-owned scratch indexed by batch-local target index, all-false
// on entry and restored to all-false on return.
func removeIndices(active, remove []int, rm []bool) []int {
	for _, v := range remove {
		rm[v] = true
	}
	out := active[:0]
	for _, v := range active {
		if !rm[v] {
			out = append(out, v)
		}
	}
	for _, v := range remove {
		rm[v] = false
	}
	return out
}
