package core

import (
	"context"
	"fmt"
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

// Add accumulates another breakdown field-wise (shared by the engine's
// batch merge and the shard router's, so a new procedure counter cannot be
// summed in one place and dropped in the other; the serving daemon's
// per-procedure counters walk serve.macProcedures).
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
	MACs          MACBreakdown
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
	r.MACs.Add(o.MACs)
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
// concurrent callers; the one thing Infer writes on the deployment is the
// X^(1) layer (hop1Memo) — a row per node in one block of the feature
// matrix's shape, filled on first use and read in place by hop 2 — through
// lock-free publish-once slots that deltas empty and extend and Refresh
// clears. Answers and MACs are bit-identical to propagating hop 1 per batch.
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

	// externalState marks a deployment whose Adj/stationary were supplied
	// by NewDeploymentWithState (a shard subgraph with global semantics):
	// rebuilding them from the local graph would silently break the
	// sharded bit-identity, so Refresh and RefreshIncremental panic.
	externalState bool

	// version counts graph mutations (Refresh and every effective delta),
	// so serving layers can tell whether cached per-node answers were
	// computed against the current graph. Monotone, never reset.
	version atomic.Uint64

	// prec is the active arithmetic tier (SetPrecision) and eng the engine
	// loop instantiated for it (precision.go): a *tier[float64] at f64, a
	// *tier[float32] at f32 and int8. It holds the tier's operands, X^(1)
	// layer and scratch pool, and is rebuilt by Refresh, SetPrecision and
	// NewDeploymentWithState.
	prec kernel.Precision
	eng  engine

	// memoStats counts the X^(1) layer's traffic across every engine this
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
// It must not be called concurrently with Infer, and panics on a shard
// deployment (NewDeploymentWithState): its caches carry global semantics a
// local rebuild cannot reproduce — the shard router repairs them instead.
func (d *Deployment) Refresh() {
	if d.externalState {
		panic("core: Refresh on a deployment with externally supplied state (shard subgraph); its router owns the caches")
	}
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
// distances Δ^(l)_v = ‖X^(l)_v − X(∞)_v‖ (Eq. 8) over nodes — the value a
// distance-mode T_s is tuned to on a validation split — indexed as
// int(q·(len−1)) into the ascending distances; 0 for no nodes. X^(l) is
// computed at float64 whatever the serving tier, through the Adj operator
// over the nodes' radius-l ball — hop h on the radius-(l−h) ball — so no Â
// is materialized and nothing outside the ball is read; each distance is
// bit-equal to one taken from a full-graph propagation. Must not run
// concurrently with ApplyDelta.
func (d *Deployment) DistanceQuantile(nodes []int, l int, q float64) float64 {
	if len(nodes) == 0 {
		return 0
	}
	sets := graph.SupportingSets(d.Graph.Adj, nodes, l)
	f := d.Graph.F()
	toLocal := graph.NewIndex(d.Graph.N())
	x := d.Graph.Features.GatherRows(sets[0]).Data
	for h := 1; h <= l; h++ {
		graph.IndexSet(sets[h-1], toLocal)
		out := make([]float64, len(sets[h])*f)
		sparse.MulNormalizedRowsInto(d.Adj, sets[h], nil, toLocal, 0, x, f, 1, out)
		graph.ResetIndex(sets[h-1], toLocal)
		x = out
	}
	graph.IndexSet(sets[l], toLocal)
	xl := mat.FromData(len(sets[l]), f, x).GatherRows(graph.LocalizeSet(nodes, toLocal, nil))
	dist := mat.RowDistances(xl, d.stationary.Rows(nodes))
	sort.Float64s(dist)
	return dist[int(q*float64(len(dist)-1))]
}

// inferScratch is the per-request mutable state of Algorithm 1 at one tier's
// element type. Pooling it keeps Deployment's cached state read-only
// (concurrency) and keeps the propagation buffers, the O(n) BFS/remap buffers
// and the gathered-row matrices out of the per-batch allocation churn
// (zero-recompute serving).
//
// Memory note: propagation runs in compacted coordinates, so each scratch
// holds one buffer of supporting-set height per hop it propagates —
// O((TMax−1)·|S|·f), S being the radius-(TMax−2) ball of the batch and hop 1
// the deployment's X^(1) layer — plus two O(n) byte/int32-sized maps (BFS
// marks and the global→local remap). Peak memory therefore scales with
// concurrently executing batches × their supporting sets, not with the
// serving graph. All |S|-sized buffers — the slab, the row and ring lists,
// the int8 tier's quantized activations (growScratch) and the decide/classify
// arena (arena.shrink) — follow one retention policy:
// they grow geometrically across pool hits and drop back to current need when
// a past batch left them more than 4× oversized, so one huge request does not
// pin worst-case capacity forever, at any tier.
type inferScratch[T float64 | float32] struct {
	// slab backs the compacted propagation buffers: hop(l) is X^{(l)} over the
	// batch's supporting set S, s rows of f columns, row toLocal[v] per node
	// v, for l = 2..TMax (X^{(0)} stays the full-graph feature matrix, read in
	// place).
	slab []T
	s, f int
	// x1 is X^{(1)}: the layer's block, rows by node id; the targets are kept
	// for reading their depth-1 rows out of it. Both nil between batches.
	x1      []T
	targets []int
	// toLocal maps global node ids into S; −1 outside (the int8 tier also
	// gives the ring the places behind S). All −1 between batches
	// (IndexSet/ResetIndex pairs keep the invariant).
	toLocal []int32
	// visited is the multi-source BFS mark buffer for supporting sets.
	visited []bool
	// rm marks batch-local target indices during removeIndices.
	rm []bool
	// ring is the outer ring of the batch's radius-(TMax−1) ball: the nodes
	// whose X^(1) rows hop 2 reads but no hop of the batch writes.
	ring []int
	// x8 holds the int8 tier's quantized input activations of one hop.
	x8 []int8
	// localRows holds one hop's propagation row list in local coordinates.
	localRows []int
	// tloc[i] is the local index of targets[i] in S.
	tloc []int
	// claimed lists the X^(1) rows of the batch's ball that were not resident
	// and this batch computed, awaited those another batch was already
	// filling.
	claimed, awaited []int
	// arena backs the transient gathered-row matrices of decide/classify.
	arena arena
}

// growScratch resizes a scratch buffer to need elements: grown geometrically
// when too small, dropped back to need when a previous batch left it more
// than 4× oversized (so pooled scratches do not retain worst-case capacity
// forever), reused as-is otherwise. Contents are not preserved.
func growScratch[T any](buf []T, need int) []T {
	const minRetain = 1024 // below this, retention is too cheap to fight
	c := cap(buf)
	switch {
	case c < need:
		return make([]T, need, sparse.GrownCap(c, need))
	case c > 4*need && c > minRetain:
		return make([]T, need)
	default:
		return buf[:need]
	}
}

// hop returns X^{(l)} over the batch's supporting set, l ≥ 2.
func (sc *inferScratch[T]) hop(l int) []T {
	return sc.slab[(l-2)*sc.s*sc.f : (l-1)*sc.s*sc.f]
}

// targetRow returns row targets[ti] of X^{(l)}, l ≥ 1: from the slab, or at
// depth 1 from the layer's block.
func (sc *inferScratch[T]) targetRow(l, ti int) []T {
	if l == 1 {
		return sc.x1[sc.targets[ti]*sc.f:][:sc.f]
	}
	return sc.hop(l)[sc.tloc[ti]*sc.f:][:sc.f]
}

// prepare readies a scratch (fresh or from the pool) for a batch on an
// n-node graph: the graph-sized maps are in place and the arena's retention
// policy is applied. The |S|-sized buffers are grown per batch, once the
// supporting set is known.
func (sc *inferScratch[T]) prepare(n, batch int) {
	if len(sc.visited) < n {
		sc.visited = make([]bool, n)
	}
	if len(sc.toLocal) < n {
		sc.toLocal = graph.NewIndex(n)
	}
	if len(sc.rm) < batch {
		sc.rm = make([]bool, batch)
	}
	sc.arena.shrink()
}

// capBytes is the retained heap capacity of one buffer.
func capBytes[E any](buf []E) int { return cap(buf) * int(unsafe.Sizeof(*new(E))) }

// bytes reports the retained heap capacity of the scratch (benchmarks track
// it to prove per-batch memory scales with |S|, not n).
func (sc *inferScratch[T]) bytes() int {
	return capBytes(sc.slab) + capBytes(sc.toLocal) + capBytes(sc.visited) + capBytes(sc.rm) +
		capBytes(sc.ring) + capBytes(sc.x8) + capBytes(sc.localRows) + capBytes(sc.tloc) +
		capBytes(sc.claimed) + capBytes(sc.awaited) + capBytes(sc.arena.buf)
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

// shrink applies the scratch retention policy between requests: when the
// buffer is more than 4× the high water of the last window, drop it so one
// huge batch does not pin arena capacity in the pool forever.
func (a *arena) shrink() {
	const minRetain = 1024
	if len(a.buf) > 4*a.hw && len(a.buf) > minRetain {
		a.buf = make([]float64, a.hw)
	}
	a.off, a.hw = 0, 0
}

// ScratchBytes reports the retained capacity in bytes of one pooled
// inferScratch (the most recently released), approximating the scratch
// memory one in-flight batch holds. Benchmarks and tests use it to track
// that per-batch memory scales with supporting-set size, not graph size.
func (d *Deployment) ScratchBytes() int { return d.eng.scratchBytes() }

// Infer runs Algorithm 1 over the targets in batches, one after another, and
// aggregates. It is safe for concurrent callers on one Deployment.
func (d *Deployment) Infer(targets []int, opt InferenceOptions) (*Result, error) {
	return d.InferContext(context.Background(), targets, opt)
}

// InferContext is Infer with a context. The engine does not observe
// cancellation (a batch in flight runs to completion); the context's
// only role is carrying an obs.Trace, into which the batch stages —
// supporting-set BFS (ring derivation included), compaction (extract: what
// is left of it now that no batch cuts a sub-CSR — indexing S and shaping the
// slab), per-hop propagation, exit decisions and classification — record
// spans, batch after batch.
func (d *Deployment) InferContext(ctx context.Context, targets []int, opt InferenceOptions) (*Result, error) {
	if err := opt.Validate(d.Model); err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	agg := &Result{NodesPerDepth: make([]int, d.Model.K+1)}
	if len(targets) == 0 {
		return agg, nil
	}
	batchSize := opt.BatchSize
	if batchSize <= 0 {
		batchSize = len(targets)
	}
	for _, batch := range graph.Batches(targets, batchSize) {
		agg.merge(d.eng.infer(batch, opt, tr))
	}
	return agg, nil
}

// infer runs one batch on a pooled scratch.
func (t *tier[T]) infer(targets []int, opt InferenceOptions, tr *obs.Trace) *Result {
	sc, _ := t.scratch.Get().(*inferScratch[T])
	if sc == nil {
		sc = &inferScratch[T]{}
	}
	sc.prepare(t.d.Graph.N(), len(targets))
	res := t.inferBatch(targets, opt, sc, tr)
	t.scratch.Put(sc)
	return res
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
// a relaxed tier's drift is confined to the propagated features.
//
// Hop 1 is not a hop of the batch: X^(1) is the deployment's layer
// (hop1Memo), whose block hop 2 gathers from as hop 1 would from X^(0), so S,
// the slab and every row set stop one ring short of the batch's receptive
// field — S is the radius-(TMax−2) ball and the slab starts at hop 2.
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
	// NAP). The global weighted sum is cached on the deployment; MACs are
	// still charged per batch, mirroring Algorithm 1's protocol.
	var xinf *mat.Matrix // stationary rows aligned with `targets`
	if opt.Mode != ModeFixed {
		st := d.stationary
		xinf = st.Rows(targets)
		res.MACs.Stationary = st.SumMACs + len(targets)*st.RowMACs()
	}

	// active[i] indexes into `targets`; global ids in activeNodes.
	active := make([]int, len(targets))
	for i := range active {
		active[i] = i
	}

	// Lines 3/5: one multi-source BFS yields the nested supporting sets for
	// every hop the batch propagates at once: the last of them is the
	// targets, each earlier one a ball one hop wider, so hop l's rows — the
	// ball of radius TMax−l — sit TMax−l sets from the end. After an
	// early-exit wave the balls shrink, so the remaining hops' sets are
	// re-derived from one BFS around the survivors — one BFS per exit wave
	// instead of one from-scratch BFS per hop. The first BFS stops one ring
	// short of the radius-(TMax−1) ball and only derives that ring: its nodes'
	// X^(1) rows are read, never written, so they need no place in S.
	sc.x1, sc.targets, sc.ring = t.memo.block, targets, sc.ring[:0]
	defer func() {
		sc.x1, sc.targets = nil, nil
		sc.ring = growScratch(sc.ring, len(sc.ring)) // shaped after use: its extent is the BFS's outcome
	}()
	mark := time.Now() // the last stage boundary read (stageEnd)
	nested := graph.SupportingSetsScratch(g.Adj, targets, max(opt.TMax-2, 0), sc.visited)
	rowsAt := func(l int) []int { return nested[len(nested)-1-(opt.TMax-l)] }

	// Compact universe: S is the widest ball of the full batch. Every later
	// row set — deeper hops, and re-derived sets after exit waves — is a
	// subset of S, so the remap stays valid for the whole batch.
	support := nested[0]
	if opt.TMax >= 2 {
		sc.ring = graph.RingScratch(g.Adj, support, sc.visited, sc.ring)
	}
	mark = stageEnd(tr, obs.StageBFS, 0, mark)
	sc.s, sc.f = len(support), g.F()
	graph.IndexSet(support, sc.toLocal)
	defer graph.ResetIndex(support, sc.toLocal)
	if t.int8() {
		// Its hop-2 operand is a quantized copy of the whole ball's X^(1)
		// rows (quantizeActivations): the ring's go behind S's.
		for k, v := range sc.ring {
			sc.toLocal[v] = int32(sc.s + k)
		}
		defer graph.ResetIndex(sc.ring, sc.toLocal)
	}
	sc.slab = growScratch(sc.slab, (opt.TMax-1)*sc.s*sc.f)
	sc.tloc = growScratch(sc.tloc, len(targets))
	for i, v := range targets {
		sc.tloc[i] = int(sc.toLocal[v])
	}
	widest := 0 // the largest row list a hop localizes: hop 2's
	if opt.TMax >= 2 {
		widest = len(rowsAt(2))
	}
	sc.localRows = growScratch(sc.localRows, widest)
	mark = stageEnd(tr, obs.StageExtract, 0, mark)

	var fpTime time.Duration
	// live lists the nodes whose rows the previous hop left for this one to
	// read: after hop 1 the whole ball's rows of the layer, then each hop's own.
	live := [2][]int{support, sc.ring}
	for l := 1; l <= opt.TMax; l++ {
		fpStart := mark
		if l == 1 {
			// The layer's rows this batch reads: S and the ring around it, or
			// at TMax 1 — S is the targets, and no hop gathers — S alone.
			res.MACs.Propagation += t.ensureLayer(sc, support, sc.ring)
		} else {
			// Hops ≥ 2 propagate inside S: their rows stay one ring inside
			// the ball the previous hop covered, so every neighbor has a row
			// to read — hop 2's in x1, by node id, later ones' in the slab
			// through toLocal.
			in, colMap := operand[T]{x: sc.x1}, []int32(nil)
			if l > 2 {
				in.x, colMap = sc.hop(l-1), sc.toLocal
			}
			if t.int8() {
				in.qx, in.deq = t.quantizeActivations(in.x, colMap, sc, live[:]...)
				colMap = sc.toLocal
			}
			rows := rowsAt(l)
			sc.localRows = graph.LocalizeSet(rows, sc.toLocal, sc.localRows)
			res.MACs.Propagation += t.mulRows(in, rows, sc.localRows, colMap, sc.f, sc.hop(l))
			live = [2][]int{rows}
		}
		mark = stageEnd(tr, obs.StagePropagate, l, mark)
		fpTime += mark.Sub(fpStart)

		if l < opt.TMin {
			continue // Line 6-7
		}
		if l < opt.TMax && opt.Mode != ModeFixed {
			// Lines 9-13: decide and classify early exits.
			decStart := mark
			exit := decide(l, m, xinf, active, opt, &res.MACs, sc)
			mark = stageEnd(tr, obs.StageDecide, 0, mark)
			fpTime += mark.Sub(decStart)
			if len(exit) > 0 {
				classify(l, m, g, targets, exit, res, sc)
				mark = stageEnd(tr, obs.StageClassify, 0, mark)
				active = removeIndices(active, exit, sc.rm)
				if len(active) == 0 {
					break
				}
				// Shrink: the remaining hops only need balls around the
				// survivors (sampling counts in Time, not FP).
				nested = graph.SupportingSetsScratch(
					g.Adj, gather(targets, active), opt.TMax-l-1, sc.visited)
				mark = stageEnd(tr, obs.StageBFS, 0, mark)
			}
		} else if l == opt.TMax {
			// Lines 16-17: everything left is classified at T_max.
			classify(l, m, g, targets, active, res, sc)
			mark = stageEnd(tr, obs.StageClassify, 0, mark)
			active = nil
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
// depth l, charging decision MACs. The depth-l rows are read from the
// compacted slab through sc.tloc and compared in float64.
func decide[T float64 | float32](l int, m *Model, xinf *mat.Matrix, active []int,
	opt InferenceOptions, macs *MACBreakdown, sc *inferScratch[T]) []int {

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
		macs.Decision += len(active) * sc.f
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
		macs.Decision += len(active) * gate.MACsPerRow()
	}
	return exit
}

// classify predicts the given target indices with classifier f^{(l)},
// charging combine and classification MACs. Depth-0 features come from the
// full-graph matrix; depths ≥ 1 from the compacted slab via sc.tloc.
func classify[T float64 | float32](l int, m *Model, g *graph.Graph, targets []int, idx []int,
	res *Result, sc *inferScratch[T]) {

	if len(idx) == 0 {
		return
	}
	sc.arena.reset()
	stack := make([]*mat.Matrix, l+1)
	for j := 0; j <= l; j++ {
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
	res.MACs.Combine += len(idx) * m.Combiner.MACsPerRow(l, sc.f)
	res.MACs.Classification += len(idx) * clf.MACsPerRow()
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
