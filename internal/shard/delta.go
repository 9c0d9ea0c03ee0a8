package shard

import (
	"context"
	"sort"

	"repro/internal/graph"
)

// ApplyDelta routes a graph mutation with no deadline or cancellation —
// ApplyDeltaContext with a background context.
func (r *Router) ApplyDelta(d graph.Delta) (*graph.DeltaResult, error) {
	return r.ApplyDeltaContext(context.Background(), d)
}

// ApplyDeltaContext routes an online graph mutation through the sharded
// system, leaving every shard bit-identical to a from-scratch rebuild over
// the merged graph (and therefore the whole system bit-identical to an
// unsharded Deployment.ApplyDelta):
//
//  1. The global graph absorbs the delta and the global stationary state
//     updates incrementally (Stationary.Update — the shards' views carry
//     its weighted sum, so they see the new X(∞) exactly).
//  2. New nodes are assigned owners: a node inherits the shard of the
//     first delta edge connecting it to an already-owned node; unattached
//     arrivals go to the least-loaded shard (lowest id on ties).
//  3. For each shard the router *plans* a versioned ShardDelta: the halo
//     re-expands incrementally (only distances reachable through the
//     delta's dirty rows are relaxed — edge additions only shrink
//     distances, so a bucketed BFS from the delta's endpoints and the new
//     owned nodes touches just the affected region), newly reached nodes
//     enter the local subgraph as appended ghost/owned rows, and the plan
//     carries the exact global bits (weighted sum, scale, looped degrees)
//     the worker needs to repair its normalized adjacency with
//     core.Deployment.PatchAdjacency — the same degree-factor patch the
//     unsharded RefreshIncremental path ends in.
//  4. The plans are appended to the per-shard delta log (the replay source
//     for stale and restarted workers) and the new version is published,
//     both under logMu; then they are delivered — a replay of the log to
//     every endpoint of every shard from its recorded version (deliver).
//     One endpoint's success commits a shard's delivery. A shard that is
//     unreachable after retries does NOT fail the delta: the router's
//     state is already committed, its endpoints are marked down, and the
//     logged delta reaches them via replay when they come back — this is
//     how a restarted worker rejoins. A worker that *rejects* a delta (a
//     permanent error) does fail the call: that is a routing bug, not an
//     outage. The result still comes back beside the error — graph,
//     version and log are committed by then, and whoever caches answers
//     above must follow them.
//
// Must not run concurrently with Infer (the serving daemon holds its write
// lock around deltas, matching the unsharded backend's contract).
func (r *Router) ApplyDeltaContext(ctx context.Context, d graph.Delta) (*graph.DeltaResult, error) {
	dr, err := r.global.ApplyDelta(d)
	if err != nil {
		return nil, err
	}
	if len(dr.Dirty) == 0 && dr.NumNew == 0 {
		// Ineffective delta (duplicates and self-loops only): no state
		// anywhere changes, no version bump, no log entry — matching
		// core.Deployment.RefreshIncremental.
		return dr, nil
	}
	r.st.Update(r.global.Adj, r.global.Features, dr.Dirty)
	newOwned := r.assignNew(dr, d)

	version := r.version.Load() + 1
	plans := make([]*ShardDelta, len(r.shards))
	for p, s := range r.shards {
		plans[p] = r.planShardDelta(s, newOwned[p], d, dr, version)
	}
	// Log the plans and publish the new version under one critical section:
	// the background prober snapshots the version and replays the log up to
	// it, so a version must never be visible before every entry it implies
	// is logged.
	r.logMu.Lock()
	for p := range plans {
		r.deltaLog[p] = append(r.deltaLog[p], plans[p])
		r.expNodes[p] = len(r.shards[p].universe)
	}
	r.version.Store(version)
	r.logMu.Unlock()

	var firstErr error
	for p := range plans {
		// A transient failure is an unreachable group: the delta is committed
		// and logged, and the prober (or the next call) replays it when a
		// worker returns.
		if err := r.deliver(ctx, p); err != nil && !IsTransient(err) && firstErr == nil {
			firstErr = err
		}
	}
	return dr, firstErr
}

// assignNew picks an owner for every appended node and extends the owner
// map. Processing ids in ascending order makes the policy deterministic: a
// new node connected (by a delta edge) to a node whose owner is already
// known — an old node, or a lower-id new node — joins that shard; otherwise
// it goes to the shard owning the fewest nodes. One pass over the edge list
// collects each new node's earliest lower-id neighbor, so the whole
// assignment is O(|edges| + NumNew) — it runs under the serving write lock.
func (r *Router) assignNew(dr *graph.DeltaResult, d graph.Delta) [][]int {
	newOwned := make([][]int, len(r.shards))
	if dr.NumNew == 0 {
		return newOwned
	}
	attach := make([]int, dr.NumNew) // earliest delta neighbor with a smaller id; −1 if none
	for i := range attach {
		attach[i] = -1
	}
	note := func(v, w int) {
		if v >= dr.FirstNew && w < v && attach[v-dr.FirstNew] < 0 {
			attach[v-dr.FirstNew] = w
		}
	}
	for i := range d.Src {
		note(d.Src[i], d.Dst[i])
		note(d.Dst[i], d.Src[i])
	}
	for v := dr.FirstNew; v < dr.FirstNew+dr.NumNew; v++ {
		p := -1
		if w := attach[v-dr.FirstNew]; w >= 0 {
			p = int(r.owner[w]) // already assigned: w < v and ids assign in order
		}
		if p < 0 {
			p = 0
			for q := 1; q < len(r.shards); q++ {
				if r.ownedCount[q] < r.ownedCount[p] {
					p = q
				}
			}
		}
		r.owner = append(r.owner, int32(p))
		r.ownedCount[p]++
		newOwned[p] = append(newOwned[p], v)
	}
	return newOwned
}

// planShardDelta is the router-side half of a shard's delta: incremental
// halo re-expansion over the merged global graph, local-membership growth
// (it mutates the shard's universe/toLocal/dist bookkeeping), and the
// synthesis of the versioned ShardDelta the worker applies mechanically.
// Everything the worker needs to stay bitwise global — newcomer features
// and looped degrees, changed degrees of existing rows, the updated
// weighted sum and scalars — is copied into the plan, so a logged plan
// stays valid verbatim no matter how many later deltas mutate the router's
// live state (replay depends on that).
func (r *Router) planShardDelta(s *shardRuntime, newOwned []int, d graph.Delta, dr *graph.DeltaResult, version uint64) *ShardDelta {
	gAdj := r.global.Adj
	radius := r.radius
	for len(s.toLocal) < r.global.N() {
		s.toLocal = append(s.toLocal, -1)
	}
	inf := radius + 1
	curDist := func(v int) int {
		if lv := s.toLocal[v]; lv >= 0 {
			return s.dist[lv]
		}
		return inf
	}

	// Bucketed multi-source relaxation over the merged global graph.
	// Additions only shrink distances, so processing candidate levels in
	// ascending order finalizes each improved node the first time it pops;
	// the region visited is bounded by the balls around the delta's dirty
	// rows. s.dist is not mutated until afterwards, so curDist reads
	// pre-delta distances throughout.
	buckets := make([][]int, radius+1)
	push := func(v, dv int) {
		if dv <= radius {
			buckets[dv] = append(buckets[dv], v)
		}
	}
	for _, v := range newOwned {
		push(v, 0)
	}
	for i := range d.Src {
		u, v := d.Src[i], d.Dst[i]
		if du := curDist(u); du < radius {
			push(v, du+1)
		}
		if dv := curDist(v); dv < radius {
			push(u, dv+1)
		}
	}
	newDist := map[int]int{}
	oldDist := map[int]int{} // pre-delta distance of every improved node
	for dv := 0; dv <= radius; dv++ {
		for qi := 0; qi < len(buckets[dv]); qi++ {
			v := buckets[dv][qi]
			cur := curDist(v)
			if nd, ok := newDist[v]; ok && nd < cur {
				cur = nd
			}
			if dv >= cur {
				continue
			}
			if _, ok := newDist[v]; !ok {
				oldDist[v] = curDist(v)
			}
			newDist[v] = dv
			if dv < radius {
				for _, u := range gAdj.RowIndices(v) {
					push(u, dv+1)
				}
			}
		}
	}

	changed := make([]int, 0, len(newDist))
	for v := range newDist {
		changed = append(changed, v)
	}
	sort.Ints(changed)

	// Newcomers join the local id space in ascending global order; promoted
	// nodes just update their stored distance.
	baseLocal := len(s.universe)
	var newcomers []int
	for _, v := range changed {
		if s.toLocal[v] < 0 {
			newcomers = append(newcomers, v)
			s.toLocal[v] = int32(len(s.universe))
			s.universe = append(s.universe, v)
			s.dist = append(s.dist, newDist[v])
		} else {
			s.dist[s.toLocal[v]] = newDist[v]
		}
	}

	// Local edge set: delta edges with both endpoints in the grown
	// universe, plus the in-universe global rows of every newcomer and of
	// every node promoted from the boundary ring to the interior (a
	// promoted row must become complete — all its neighbors are within
	// radius now — and a newcomer's truncated row keeps the local matrix
	// exactly what a fresh build over the merged graph would cut, which the
	// rebuild-equivalence test pins). The worker's graph.ApplyDelta dedupes
	// against existing entries per direction, preserving the invariant that
	// an entry (u,v) is stored iff the edge exists globally and both
	// endpoints are local.
	var lsrc, ldst []int
	addEdge := func(gu, gv int) {
		lu, lv := s.toLocal[gu], s.toLocal[gv]
		if lu >= 0 && lv >= 0 {
			lsrc = append(lsrc, int(lu))
			ldst = append(ldst, int(lv))
		}
	}
	for i := range d.Src {
		addEdge(d.Src[i], d.Dst[i])
	}
	for _, v := range changed {
		if old := oldDist[v]; old > radius || (old == radius && newDist[v] < radius) {
			for _, u := range gAdj.RowIndices(v) {
				addEdge(v, u)
			}
		}
	}

	sd := &ShardDelta{
		Version: version,
		Src:     lsrc,
		Dst:     ldst,
		Scale:   r.st.Scale,
		SumMACs: r.st.SumMACs,
		// Copied, not aliased: the router's live WeightedSum mutates with
		// every later delta, and the log must replay this one's exact bits.
		WeightedSum: append([]float64(nil), r.st.WeightedSum...),
	}
	if len(newcomers) > 0 {
		sd.NewFeatures = r.global.Features.GatherRows(newcomers)
		sd.NewLabels = make([]int, len(newcomers))
		sd.NewDeg = make([]float64, len(newcomers))
		for k, v := range newcomers {
			sd.NewLabels[k] = r.global.Labels[v]
			sd.NewDeg[k] = r.st.LoopedDeg[v]
		}
	}
	for _, v := range dr.Dirty {
		if lv := s.toLocal[v]; lv >= 0 {
			sd.DirtyLocal = append(sd.DirtyLocal, int(lv))
			if int(lv) < baseLocal {
				sd.DegIdx = append(sd.DegIdx, int(lv))
				sd.DegVal = append(sd.DegVal, r.st.LoopedDeg[v])
			}
		}
	}
	return sd
}
