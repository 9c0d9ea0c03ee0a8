package shard

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
)

// Worker is one shard's serving state behind the Transport boundary: a
// core.Deployment over the shard's owned+halo subgraph plus its stationary
// view. It is the process-side half of distributed sharding — the router
// keeps the global graph, ownership and halo bookkeeping, and the worker
// holds only the bulky hot-path state (features, the local adjacency pattern
// with its nodes' global degree factors — no normalized matrix — the engine's
// layers and propagation scratch) for its subgraph. A worker is built either in the
// router's process (LocalTransport) or by a separate `naiserve
// -shard-worker` process serving the wire protocol (HTTPTransport).
//
// State changes arrive as versioned ShardDeltas the router plans from its
// global graph: version 1 is the bootstrapped state, each applied delta
// bumps it by one. Application is idempotent by version — replaying an old
// delta is a no-op, a gap is a *StaleError the router heals by replaying
// its log — which is what lets a restarted worker (back at version 1)
// rejoin a long-running router.
//
// Concurrency: Infer calls run under a read lock (any number concurrently,
// matching core.Deployment), ApplyDelta under the write lock.
type Worker struct {
	mu      sync.RWMutex
	shardID int
	shards  int
	radius  int
	// globalN is the global node count at bootstrap (handshake check).
	globalN int
	prec    kernel.Precision
	dep     *core.Deployment
	st      *core.Stationary
	version uint64
	// draining flags a worker being rolled out of the fleet: the HTTP
	// handler refuses new RPCs with 503 (a transient error the router fails
	// over past) while in-flight ones finish, so a SIGTERM'd worker process
	// exits without dropping a request (see naiserve -drain-timeout).
	draining atomic.Bool
}

// NewWorker bootstraps shard shardID of cfg.Shards from the global graph:
// it runs the same deterministic partition and subgraph cut the router
// runs, so a worker process launched with the router's model, graph and
// flags holds bit-identical shard state without any bulk state transfer.
// The worker starts at graph version 1, matching a fresh router.
func NewWorker(m *core.Model, g *graph.Graph, cfg Config, shardID int) (*Worker, error) {
	asg, st, radius, err := layout(m, g, cfg)
	if err != nil {
		return nil, err
	}
	if shardID < 0 || shardID >= asg.P {
		return nil, fmt.Errorf("shard: worker id %d outside [0,%d)", shardID, asg.P)
	}
	// The halo universe: the radius-hop ball of the owned set, ascending —
	// the shard's local id space, the router's shardRuntime.universe.
	dep, lst, err := buildShardState(m, g, st, graph.Ball(g.Adj, asg.Owned[shardID], radius))
	if err != nil {
		return nil, err
	}
	return newWorker(shardID, asg.P, radius, g.N(), cfg.Precision, dep, lst), nil
}

// newWorker wraps already-built shard state (the local router's path, which
// computes one partition and one global stationary, then cuts each of the P
// workers its own view). The engine is re-tiered here so both bootstrap
// paths serve the configured tier.
func newWorker(shardID, shards, radius, globalN int, prec kernel.Precision, dep *core.Deployment, st *core.Stationary) *Worker {
	dep.SetPrecision(prec)
	return &Worker{shardID: shardID, shards: shards, radius: radius,
		globalN: globalN, prec: prec, dep: dep, st: st, version: 1}
}

// buildShardState cuts one shard's subgraph out of the global graph and
// deploys it. The local adjacency keeps every universe row truncated to
// universe columns — interior rows are complete by the halo construction,
// boundary rows keep exactly the in-universe half of their edges so the
// local matrix stays symmetric (delta routing relies on that for reverse
// neighbor lookups). No normalized adjacency is built: the deployment serves
// it from that local pattern and the stationary view, whose LoopedDeg are the
// universe's *global* looped degrees — exactness is passing that vector — and
// which carries an exact copy of the global weighted sum, so every value the
// worker computes with equals the unsharded one bitwise.
func buildShardState(m *core.Model, g *graph.Graph, gst *core.Stationary, universe []int) (*core.Deployment, *core.Stationary, error) {
	toLocal := graph.NewIndex(g.N())
	graph.IndexSet(universe, toLocal)
	raw := g.Adj.ExtractRowsTruncated(universe, toLocal, len(universe))
	labels := make([]int, len(universe))
	for lv, v := range universe {
		labels[lv] = g.Labels[v]
	}
	lg, err := graph.New(raw, g.Features.GatherRows(universe), labels, g.NumClasses)
	if err != nil {
		return nil, nil, err
	}
	st := gst.LocalView(universe)
	dep, err := core.NewDeploymentWithState(m, lg, st)
	if err != nil {
		return nil, nil, err
	}
	return dep, st, nil
}

// Infer answers one shard-local batch — InferContext with a background
// context.
func (w *Worker) Infer(req *InferRequest) (*core.Result, error) {
	return w.InferContext(context.Background(), req)
}

// InferContext answers one shard-local batch. The context carries an
// optional obs.Trace the engine records its spans into (an in-process
// worker shares the router's trace; a remote worker's HTTP handler starts
// its own under the router's id). A version mismatch — the worker's graph
// is behind (restarted worker) or ahead of the requested version — returns
// a *StaleError instead of an answer from the wrong graph; the router
// replays its delta log and retries.
func (w *Worker) InferContext(ctx context.Context, req *InferRequest) (*core.Result, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if req.Version != 0 && w.version != req.Version {
		return nil, &StaleError{Shard: w.shardID, Have: w.version, Want: req.Version}
	}
	if req.Precision != w.prec {
		// The handshake rejects tier mismatches up front; this catches a
		// request racing a reconfiguration (it cannot be healed by replay).
		return nil, &precisionError{shard: w.shardID, have: w.prec, want: req.Precision}
	}
	return w.dep.InferContext(ctx, req.Targets, req.Opt)
}

// ApplyDelta applies one versioned shard-local delta, leaving the worker's
// state bit-identical to a from-scratch rebuild over the merged graph (the
// router plans the delta so that holds; TestIncrementalMatchesRebuild pins
// it). Idempotent by version: an already-applied version is a successful
// no-op, a version gap is a *StaleError carrying the worker's current
// version so the router can replay from there.
func (w *Worker) ApplyDelta(sd *ShardDelta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case sd.Version <= w.version:
		return nil // replay of an already-applied delta
	case sd.Version != w.version+1:
		return &StaleError{Shard: w.shardID, Have: w.version, Want: sd.Version - 1}
	}
	if err := w.validateDelta(sd); err != nil {
		return err
	}

	ld := graph.Delta{Features: sd.NewFeatures, Labels: sd.NewLabels, Src: sd.Src, Dst: sd.Dst}
	ldr, err := w.dep.Graph.ApplyDelta(ld)
	if err != nil {
		return fmt.Errorf("shard %d: local delta: %w", w.shardID, err)
	}

	// Re-sync the stationary view with the router's updated global state:
	// the weighted sum, scalars and looped degrees all carry the router's
	// exact bits, so sharded stationary rows stay bitwise global.
	w.st.Scale = sd.Scale
	w.st.SumMACs = sd.SumMACs
	copy(w.st.WeightedSum, sd.WeightedSum)
	for k, lv := range sd.DegIdx {
		w.st.LoopedDeg[lv] = sd.DegVal[k]
	}
	w.st.LoopedDeg = append(w.st.LoopedDeg, sd.NewDeg...)
	w.version = sd.Version

	if len(ldr.Dirty) == 0 && len(sd.DegIdx) == 0 {
		return nil
	}

	// Value-dirty local rows, mirroring the unsharded RefreshIncremental:
	// every local row whose global looped degree changed, every local row
	// adjacent to one (its D̃^{−γ} column factors moved — the local matrix
	// is symmetric under truncation, so the node's own row names exactly
	// the rows referencing it), and every row whose local entry set changed.
	valDirty := append(graph.Ball(w.dep.Graph.Adj, sd.DirtyLocal, 1), ldr.Dirty...)
	slices.Sort(valDirty)
	valDirty = slices.Compact(valDirty)
	// The shard path bypasses Deployment.ApplyDelta (the looped degrees
	// above are the router's, not locally derivable), so the degree-factor
	// patch, layer growth and invalidation, and operand re-lowering are
	// asked for here.
	w.dep.PatchAdjacency(valDirty)
	return nil
}

// validateDelta bounds-checks every shard-specific field of sd against the
// worker's pre-delta state, before anything mutates. Deltas arrive off the
// network (POST /shard/delta, and the current version is readable via GET
// /shard/health), so a hostile or buggy peer must fail fast with a
// *badDeltaError (HTTP 400) — never panic mid-apply with the graph already
// mutated but the version not yet bumped, which would corrupt the worker
// permanently on the next replay. The graph-level fields (Src/Dst/
// NewFeatures/NewLabels) are covered by graph.ApplyDelta's own
// validate-before-mutate contract.
func (w *Worker) validateDelta(sd *ShardDelta) error {
	bad := func(format string, args ...any) error {
		return &badDeltaError{shard: w.shardID, reason: fmt.Sprintf(format, args...)}
	}
	curN := w.dep.Graph.N()
	newN := 0
	if sd.NewFeatures != nil {
		newN = sd.NewFeatures.Rows
	}
	switch {
	case len(sd.NewDeg) != newN:
		return bad("%d new degrees for %d new nodes", len(sd.NewDeg), newN)
	case len(sd.DegIdx) != len(sd.DegVal):
		return bad("%d degree indices for %d degree values", len(sd.DegIdx), len(sd.DegVal))
	case len(sd.WeightedSum) != len(w.st.WeightedSum):
		return bad("weighted sum length %d, want %d", len(sd.WeightedSum), len(w.st.WeightedSum))
	}
	for _, lv := range sd.DegIdx {
		if lv < 0 || lv >= curN {
			return bad("degree index %d outside local rows [0,%d)", lv, curN)
		}
	}
	for _, lv := range sd.DirtyLocal {
		if lv < 0 || lv >= curN+newN {
			return bad("dirty row %d outside grown local rows [0,%d)", lv, curN+newN)
		}
	}
	return nil
}

// StartDrain takes the worker out of rotation for graceful replacement:
// every subsequent wire RPC — including health probes, so the router stops
// routing here — is refused with 503 while requests already past the
// handler's drain check run to completion. Irreversible by design: a
// draining process exits; its replacement bootstraps fresh and rejoins via
// delta-log replay.
func (w *Worker) StartDrain() { w.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (w *Worker) Draining() bool { return w.draining.Load() }

// Health reports the worker's serving state for the router's probes.
func (w *Worker) Health() HealthInfo {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return HealthInfo{
		ShardID:      w.shardID,
		Shards:       w.shards,
		Radius:       w.radius,
		Nodes:        w.dep.Graph.N(),
		GlobalNodes:  w.globalN,
		Version:      w.version,
		ScratchBytes: w.dep.ScratchBytes(),
		Hop1:         w.dep.Hop1Stats(),
		Precision:    w.prec,
	}
}

// ShardDelta is one shard's versioned share of a global graph delta, fully
// planned by the router (which owns the global graph and halo bookkeeping)
// and mechanically applied by the worker. It is the unit the wire codec
// serializes and the router's replay log stores.
type ShardDelta struct {
	// Version is the router graph version this delta produces; the worker
	// applies it only at Version−1 (idempotent replay otherwise).
	Version uint64
	// NewFeatures/NewLabels/NewDeg describe nodes appended to the local
	// subgraph (newcomers entering the halo or owned set), in local id
	// order; NewDeg carries their global looped degrees.
	NewFeatures *mat.Matrix
	NewLabels   []int
	NewDeg      []float64
	// Src/Dst are local-id edges to merge: the delta's own in-universe
	// edges plus the full rows of newcomers and of boundary nodes promoted
	// to the interior.
	Src, Dst []int
	// Scale, SumMACs and WeightedSum re-sync the stationary view; the
	// weighted sum is the router's exact global bits (a whole-graph
	// quantity no subgraph can recompute).
	Scale       float64
	SumMACs     int
	WeightedSum []float64
	// DegIdx/DegVal patch the looped degrees of pre-existing local rows
	// whose global degree changed.
	DegIdx []int
	DegVal []float64
	// DirtyLocal lists every local row whose global adjacency row changed
	// (including newcomers) — the seeds of the normalized-adjacency repair.
	DirtyLocal []int
}
