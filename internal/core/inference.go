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

func (r *Result) merge(o *Result) {
	r.Pred = append(r.Pred, o.Pred...)
	r.Depths = append(r.Depths, o.Depths...)
	for l := range o.NodesPerDepth {
		r.NodesPerDepth[l] += o.NodesPerDepth[l]
	}
	r.TotalTime += o.TotalTime
	r.FPTime += o.FPTime
	r.NumTargets += o.NumTargets
}

// Deployment is a model served against a full graph (which now includes
// the unseen test nodes). It owns the normalized adjacency — held implicitly,
// as the graph's own pattern plus two degree-factor vectors, never as a
// matrix — and the cached stationary state, computed once at construction
// (and on Refresh) instead of per batch. All per-request state lives in
// pooled scratch; rows of Â are never materialized anywhere — every product
// is an operator product whose workers emit a row, use it and drop it — and
// the cached state is read-only during inference, so Infer is safe for
// concurrent callers; the one thing Infer writes on the deployment is its
// layers (hopLayer): X^(h) for the depth h = max(1, TMax−2) of each operating
// point served, a row per node in one block of the feature matrix's shape,
// allocated on the first read at that depth, filled on first use and read in
// place by hop h+1, and past TMax 2 the hubs' rows of X^(h+1), which hop h+1
// copies instead of computing — through lock-free publish-once slots that
// deltas empty and extend and Refresh clears. Answers are
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
	// operator over Graph.Adj and the stationary state's looped degrees.
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
	d.Adj = sparse.NewNormalized(d.Graph.Adj, d.Model.Gamma, d.stationary.LoopedDeg)
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
// computed at float64 whatever the serving tier, by the engine's propagate
// over the nodes' radius-l ball — hop h on the radius-(l−h) ball — so no Â is
// materialized and nothing outside the ball is read; each distance is
// bit-equal to one taken from a full-graph propagation. Must not run
// concurrently with ApplyDelta.
func (d *Deployment) DistanceQuantile(nodes []int, l int, q float64) float64 {
	if len(nodes) == 0 {
		return 0
	}
	f := d.Graph.F()
	uniq := sortedUnique(nodes, nil)
	x := make([]float64, len(uniq)*f)
	propagate(d.Adj, operand[float64]{x: d.Graph.Features.Data}, uniq, nil, l, f, x, &hopScratch[float64]{})
	at := make([]int, len(nodes))
	for i, v := range nodes {
		at[i] = sort.SearchInts(uniq, v)
	}
	xl := mat.FromData(len(uniq), f, x).GatherRows(at)
	dist := mat.RowDistances(xl, d.stationary.Rows(nodes))
	sort.Float64s(dist)
	return dist[int(q*float64(len(dist)-1))]
}

// sortedUnique returns nodes sorted ascending without duplicates, in dst
// (reused when its capacity suffices).
func sortedUnique(nodes, dst []int) []int {
	dst = append(dst[:0], nodes...)
	slices.Sort(dst)
	return slices.Compact(dst)
}

// subtractSorted returns, in dst, the members of a that are not in b, both
// ascending without duplicates.
func subtractSorted(dst, a, b []int) []int {
	dst = dst[:0]
	for _, v := range a {
		for len(b) > 0 && b[0] < v {
			b = b[1:]
		}
		if len(b) == 0 || b[0] != v {
			dst = append(dst, v)
		}
	}
	return dst
}

// inferScratch is the per-request mutable state of Algorithm 1 at one tier's
// element type. Pooling it keeps Deployment's cached state read-only
// (concurrency) and keeps the propagation buffers, the O(n) BFS/remap buffers
// and the gathered-row matrices out of the per-batch allocation churn
// (zero-recompute serving).
//
// Memory note: propagation runs in compacted coordinates, so each scratch
// holds one buffer of supporting-set height per hop it propagates —
// O((TMax−h)·|S|·f), S being the radius-(TMax−h−1) ball of the batch and hops
// 1..h the deployment's depth-h layer — plus the targets' own rows at depths
// below h, the BFS's rings (its radius-(TMax−h) ball) and sorted balls, the
// survivors' BFSes past h in two more rings (each the radius-(TMax−l) ball of
// a wave's survivors) with the rows the hop still owes them, a BFS bitset of
// n/4 bytes (graph.NewBitset) and two O(n) int32 global→local remaps. A batch that
// fills layer rows also holds their hops below h, and their balls, over the
// rows' balls, for the fill (hopScratch). Peak memory therefore scales with
// concurrently executing batches × their balls, not with the serving graph.
// All ball-sized buffers — the slab and the row lists (growScratch), the BFSes'
// rings and balls (rings.shrink), the fill's hops (hopScratch.shrink) and the
// decide/classify arena (arena.shrink) — follow one retention policy
// (oversized): they grow geometrically across pool hits and drop back to
// current need when a past batch left them more than 4× oversized, so one huge
// request does not pin worst-case capacity forever. Every tier holds the same
// buffers, at its element type.
type inferScratch[T float64 | float32] struct {
	// hopScratch holds a fill's hops below the layer's depth (propagate); its
	// set is also the bitset of the batch's own BFSes.
	hopScratch[T]
	// bfs is the batch's BFS at depths ≤ h — S and the ring are read off it —
	// and Books'. Past h the survivors' BFSes alternate between the two wave
	// rings, so S and the ring stay where they are and so do the balls of the
	// BFS before, whose rows the hop in flight has already written.
	bfs  rings
	wave [2]rings
	// rest lists the rows a hop past h computes after its exit wave: the
	// survivors' ball minus the rows it wrote before the wave. compute lists
	// the rows of one product at hop h+1 that no ready hub row covers.
	rest, compute []int
	// slab backs the compacted propagation buffers: hop(l) is X^{(l)} over the
	// batch's supporting set S, s rows of f columns, row toLocal[v] per node
	// v, for l = h+1..TMax (X^{(0)} stays the full-graph feature matrix, read
	// in place).
	slab []T
	s, f int
	// h is the depth of the layer the batch reads and xh its block, rows by
	// node id; the targets are kept for reading their depth-h rows out of it.
	// xh and targets are nil between batches.
	h       int
	xh      []T
	targets []int
	// uniq is the batch's targets sorted without duplicates and low their
	// rows at depths 1..h−1, computed from X^(0): depth l's row of uniq[k] at
	// ((l−1)·len(uniq) + k)·f. lowAt[i] is targets[i]'s k.
	uniq, lowAt []int
	low         []T
	// toLocal maps global node ids into S; −1 outside. All −1 between batches
	// (IndexSet/ResetIndex pairs keep the invariant).
	toLocal []int32
	// rm marks batch-local target indices during removeIndices.
	rm []bool
	// ring is the outer ring of the batch's radius-(TMax−h) ball, in bfs: the
	// nodes whose layer rows hop h+1 reads but no hop of the batch writes.
	ring []int
	// localRows holds one hop's propagation row list in local coordinates.
	localRows []int
	// tloc[i] is the local index of targets[i] in S.
	tloc []int
	// claimed lists the layer rows of the batch's ball that were not resident
	// and this batch computed, awaited those another batch was already
	// filling; at hop h+1, claimed then lists the hub rows one product claimed.
	claimed, awaited []int
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

// ring returns the nodes at distance exactly r.
func (rg *rings) ring(r int) []int {
	if r == 0 {
		return rg.ball[:rg.ends[0]]
	}
	return rg.ball[rg.ends[r-1]:rg.ends[r]]
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

// hop returns X^{(l)} over the batch's supporting set, l > h.
func (sc *inferScratch[T]) hop(l int) []T {
	return sc.slab[(l-sc.h-1)*sc.s*sc.f : (l-sc.h)*sc.s*sc.f]
}

// lowRows returns X^{(l)} over uniq, l < h.
func (sc *inferScratch[T]) lowRows(l int) []T {
	return sc.low[(l-1)*len(sc.uniq)*sc.f : l*len(sc.uniq)*sc.f]
}

// targetRow returns row targets[ti] of X^{(l)}, l ≥ 1: below h from the rows
// computed for the targets, at h from the layer's block, past it from the
// slab.
func (sc *inferScratch[T]) targetRow(l, ti int) []T {
	switch {
	case l < sc.h:
		return sc.lowRows(l)[sc.lowAt[ti]*sc.f:][:sc.f]
	case l == sc.h:
		return sc.xh[sc.targets[ti]*sc.f:][:sc.f]
	}
	return sc.hop(l)[sc.tloc[ti]*sc.f:][:sc.f]
}

// prepare readies a scratch (fresh or from the pool) for a batch on an
// n-node graph: the graph-sized maps are in place and the arena's, the BFS
// lists' and the fill hops' retention policy is applied. The |S|-sized
// buffers are grown per batch, once the supporting set is known.
func (sc *inferScratch[T]) prepare(n, batch int) {
	sc.bitset(n)
	if len(sc.toLocal) < n {
		sc.toLocal = graph.NewIndex(n)
	}
	if len(sc.rm) < batch {
		sc.rm = make([]bool, batch)
	}
	sc.arena.shrink()
	sc.hopScratch.shrink()
	sc.bfs.shrink()
	sc.wave[0].shrink()
	sc.wave[1].shrink()
}

// capBytes is the retained heap capacity of one buffer.
func capBytes[E any](buf []E) int { return cap(buf) * int(unsafe.Sizeof(*new(E))) }

// bytes reports the retained heap capacity of the scratch (benchmarks track
// it to prove per-batch memory scales with |S|, not n).
func (sc *inferScratch[T]) bytes() int {
	return capBytes(sc.slab) + capBytes(sc.toLocal) + capBytes(sc.set) + capBytes(sc.rm) +
		capBytes(sc.localRows) + capBytes(sc.tloc) +
		capBytes(sc.claimed) + capBytes(sc.awaited) + capBytes(sc.arena.buf) +
		capBytes(sc.idx) + capBytes(sc.bufs[0]) + capBytes(sc.bufs[1]) +
		capBytes(sc.uniq) + capBytes(sc.lowAt) + capBytes(sc.low) + capBytes(sc.rest) + capBytes(sc.compute) +
		sc.bfs.bytes() + sc.wave[0].bytes() + sc.wave[1].bytes() + sc.fill.bytes()
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
// into which each batch's stages record spans: bfs (one at the start and one
// per exit wave), extract (indexing S and shaping the slab), propagate per hop
// — none for a hop below the layer whose rows nothing reads, two for a hop
// between the layer and TMax that decides (its active targets' rows, then,
// after its wave's decide, classify and survivors' bfs spans, the rest of the
// rows the next hop reads) — decide and classify.
func (d *Deployment) InferContext(ctx context.Context, targets []int, opt InferenceOptions) (*Result, error) {
	if err := opt.Validate(d.Model); err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	agg := &Result{NodesPerDepth: make([]int, d.Model.K+1)}
	for _, batch := range opt.batches(targets) {
		agg.merge(d.eng.infer(batch, opt, tr))
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
// at every tier — run in compacted coordinates: all propagation, gating and
// classification happens on |S|×f buffers over a supporting ball S of the
// batch instead of full-graph n×f ones, with a global→local remap bridging
// the two. Propagation runs at the tier's element type T; stationary rows,
// exit decisions, combination and classifiers are float64 at every tier, so
// a relaxed tier's drift is confined to the propagated features. The int8
// tier differs only in hop 1's operand (precision.go), which the loop does not
// see: every row it computes is a function of the graph and the features, so
// a target's answer is the same whatever batch it is served in.
//
// Hops 1..h are not hops of the batch: X^(h) is the deployment's layer
// (hopLayer, h = layerDepth(TMax)), whose block hop h+1 gathers from as hop 1
// would from X^(0), so S, the slab and every row set stop h rings short of the
// batch's receptive field — S is the radius-(TMax−h−1) ball and the slab
// starts at hop h+1. Below h the batch needs only its targets' own rows, for
// their exits and classifiers, and computes them from X^(0) at the depths a
// decision or a classifier's combiner reads (an SGC model past TMin reads
// none). One BFS per exit wave serves every depth up to h: it runs to radius
// TMax−h, and S and the ring around it are read off its rings. At h = 1, every
// TMax ≤ 3, there is nothing below h.
//
// Past h, the hops run in demand order: a hop l < TMax that decides first
// computes only its active targets' rows, which its wave reads, then the
// survivors' BFS runs to radius TMax−l — the ball hop l+1 reads, and every
// later hop's rows — and only then does hop l compute the rest of
// that ball. Exited targets' balls are never propagated. Hop h+1 < TMax copies
// the hubs' rows it finds resident in the tier's hub layer (hopLayer) into the
// slab instead of computing them, and publishes the ones it computes.
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

	// active[i] indexes into `targets`; global ids in activeNodes.
	active := make([]int, len(targets))
	for i := range active {
		active[i] = i
	}

	h := layerDepth(opt.TMax)
	lay := t.layer(h)
	sc.h, sc.xh, sc.targets, sc.f = h, lay.block, targets, g.F()
	// cur is the latest BFS, around the targets still active: its sorted
	// balls[r] is their radius-r ball, for the hops still to run — hop l's rows
	// are the ball of radius TMax−l, and balls[0] is the active targets. support
	// is S, indexed from depth h on.
	var cur *rings
	var support []int
	defer func() {
		graph.ResetIndex(support, sc.toLocal)
		sc.xh, sc.targets, sc.ring = nil, nil, nil
	}()
	if h > 1 {
		sc.uniq = sortedUnique(targets, growScratch(sc.uniq, len(targets)))
		sc.low = growScratch(sc.low, (h-1)*len(sc.uniq)*sc.f)
		sc.lowAt = growScratch(sc.lowAt, len(targets))
		for i, v := range targets {
			sc.lowAt[i] = sort.SearchInts(sc.uniq, v)
		}
	}
	rowsAt := func(l int) []int { return cur.balls[opt.TMax-l] }
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

	// wave is lines 6–17 at depth l once its active targets' rows are in place:
	// decide and classify the early exits, or at T_max everyone left. It
	// reports whether the active set changed.
	wave := func(l int) bool {
		if l == opt.TMax { // Lines 16-17
			classify(l, m, g, targets, active, res, sc)
			mark = stageEnd(tr, obs.StageClassify, 0, mark)
			active = nil
			return true
		}
		if !opt.decides(l) { // Lines 6-7, or no NAP
			return false
		}
		// Lines 9-13.
		decStart := mark
		exit := decide(l, m, xinf, active, opt, sc)
		mark = stageEnd(tr, obs.StageDecide, 0, mark)
		fpTime += mark.Sub(decStart)
		if len(exit) == 0 {
			return false
		}
		classify(l, m, g, targets, exit, res, sc)
		mark = stageEnd(tr, obs.StageClassify, 0, mark)
		active = removeIndices(active, exit, sc.rm)
		return true
	}

	fresh := true // the active set changed since the last BFS, or none ran yet

	// bfs is lines 3/5 for depth l: one level-ordered multi-source BFS around
	// the targets still active, to the widest ball the data path reads from l
	// on, radius TMax−max(l, h) (sampling counts in Time, not FP). Its sorted
	// balls are the supporting sets of the hops the batch propagates. Up to h
	// it also yields the ring beyond S, ring TMax−h, whose nodes' layer rows hop
	// h+1 reads but no hop writes — so it is never sorted or given a place in S.
	bfs := func(l int) {
		rg := &sc.bfs
		if l > h {
			// Not into the rings S and the ring are views of, nor into the
			// previous BFS's: the hop in flight is reading its balls.
			rg = &sc.wave[0]
			if cur == rg {
				rg = &sc.wave[1]
			}
		}
		rg.run(g.Adj, gather(targets, active), opt.TMax-max(l, h), max(opt.TMax-max(l, h+1), 0), sc.set)
		cur, fresh = rg, false
		mark = stageEnd(tr, obs.StageBFS, 0, mark)
	}

	// Hops past h propagate inside S: their rows stay one ring inside the ball
	// the previous hop covered, so every neighbor has a row to read — hop h+1's
	// in the layer, by node id, later ones' in the slab through toLocal. Hop
	// h+1 < TMax also reads and fills the hub layer.
	var in operand[T]
	var colMap []int32
	hubs := h+1 < opt.TMax
	product := func(l int, rows []int) {
		out := sc.hop(l)
		var hub *hopLayer[T]
		if hubs && l == h+1 {
			hub = t.hubLayer(l)
			sc.compute, sc.claimed = hub.hubRows(rows, sc.toLocal, out, growScratch(sc.compute, len(rows))[:0], sc.claimed[:0])
			rows = sc.compute
		}
		sc.localRows = graph.LocalizeSet(rows, sc.toLocal, sc.localRows)
		mulRows(d.Adj, in, rows, sc.localRows, colMap, sc.f, out)
		if hub != nil {
			hub.publishHubs(sc.claimed, sc.toLocal, out)
		}
	}

	for l := 1; l <= opt.TMax && len(active) > 0; l++ {
		if fresh {
			// At the start, and after a wave at a depth ≤ h, the next depth
			// BFSes; past h a wave's own hop runs the survivors' BFS.
			bfs(l)
		}
		if l == h {
			// Compact universe: S, the radius-(TMax−h−1) ball — at TMax = h
			// the targets — is the widest ball of the batch from here on.
			// Every later row set — deeper hops, and re-derived sets after exit
			// waves — is a subset of S, so the remap stays valid.
			support = cur.balls[len(cur.balls)-1]
			if opt.TMax > h {
				sc.ring = sc.bfs.ring(len(cur.balls))
			}
			sc.s = len(support)
			graph.IndexSet(support, sc.toLocal)
			sc.slab = growScratch(sc.slab, (opt.TMax-h)*sc.s*sc.f)
			sc.tloc = growScratch(sc.tloc, len(targets))
			for i, v := range targets {
				sc.tloc[i] = int(sc.toLocal[v])
			}
			widest := 0 // the largest row list a hop localizes: hop h+1's
			if opt.TMax > h {
				widest = len(rowsAt(h + 1))
			}
			sc.localRows = growScratch(sc.localRows, widest)
			mark = stageEnd(tr, obs.StageExtract, 0, mark)
		}

		fpStart := mark
		if l < h && !reads(l) {
			continue // no row of the batch's is read at l
		}
		var first []int
		switch {
		case l < h:
			// The targets' own depth-l rows.
			propagate(d.Adj, t.base, sc.uniq, nil, l, sc.f, sc.lowRows(l), &sc.hopScratch)
		case l == h:
			// The layer's rows this batch reads: S and the ring around it, or
			// at TMax = h — S is the targets, and no hop gathers — S alone.
			t.ensureLayer(sc, lay, support, sc.ring)
		default:
			in, colMap = operand[T]{x: sc.xh}, nil
			if l > h+1 {
				in.x, colMap = sc.hop(l-1), sc.toLocal
			}
			first = rowsAt(l)
			if opt.decides(l) {
				first = cur.balls[0] // what the wave reads
			}
			product(l, first)
		}
		mark = stageEnd(tr, obs.StagePropagate, l, mark)
		fpTime += mark.Sub(fpStart)

		fresh = wave(l)
		if l > h && opt.decides(l) && len(active) > 0 {
			// Demand order: the survivors' BFS, then the rows of their ball
			// that hop l has not written yet — all of them at once when nobody
			// exited.
			if fresh {
				bfs(l)
			}
			fpStart = mark
			ball := rowsAt(l)
			sc.rest = subtractSorted(growScratch(sc.rest, len(ball)), ball, first)
			product(l, sc.rest)
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
// depth l. The depth-l rows come through targetRow — below h the rows
// computed for the targets, at h the layer's block, past h the slab — and are
// compared in float64.
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
// targetRow — the rows computed for the targets below h, the layer's block at
// h and the slab past h.
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

func gather(targets []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = targets[v]
	}
	return out
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
