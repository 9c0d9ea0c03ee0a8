package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// hopLayer is a layer of propagated features: X^(h)_v = (Â^h·X^(0))_v for
// every node v, at the active tier's slab element type, in one flat block
// indexed by node id — a second matrix of X^(0)'s shape beside it. X^(h) is a
// product no request's identity enters, so no batch propagates hops 1..h: a
// batch makes the rows of its radius-(TMax−h) ball resident (tier.ensureLayer),
// hop h+1 gathers from the block through the Â operator the way hop 1 would
// from the feature matrix, and exit decisions and classifiers read the
// targets' depth-h rows in place.
//
// The depth a batch reads is its operating point's (layerDepth): h =
// max(1, TMax−2) at f64 and f32, so that what a batch still propagates is its
// survivors' one-ring ball, and h = 1 at int8, whose hop ≥ 2 activations are
// quantized at a scale over one batch's ball — X^(2) is not a function of the
// graph there. A whole layer deeper would not pay: a layer per hop costs a
// block per hop, and one deeper than TMax−2 only trades the product over the
// survivors' one-ring ball for one over the targets' (their own rows below h),
// while its invalidation (below) reaches further per delta.
//
// What does pay one hop deeper is the hubs' rows. Hop h+1 < TMax gathers
// X^(h) over its survivors' one-ring ball, and on a skewed graph most of that
// gather is the same few highest-degree rows every batch: on a products-like
// graph of 100 000 nodes the 1 563 highest-degree nodes' rows are three
// quarters of a TMax-4 batch's hop-3 entries of Â. So a tier also keeps
// X^(h+1) for the ⌈n/64⌉ highest-degree nodes (hubMembers), at f64 and f32
// and whenever h+1 < TMax: a hub layer, this type over a sorted member list,
// row k holding members[k]'s. Hop h+1 copies its ready hub rows out of it
// instead of gathering them, and copies the ones it claimed into it after its
// product (hubRows, publishHubs); a row another batch is filling is computed,
// never waited for, so hub rows add no publish-before-read edge. int8 gets
// none, and TMax ≤ 2 has no hop h+1 < TMax.
//
// The memory contract is one block per depth some batch has read, allocated
// on that first read — not when the engine is rebuilt (Refresh,
// SetPrecision) — and touched only where a request has needed a
// row. A deployment served at one operating point, as every server is, holds
// exactly one: a row per node plus 1/64 of headroom for the nodes deltas
// append, at most (n + n/64)·(f·sizeof(T) + 4) bytes, and beside it, past
// TMax 2, one hub layer of ⌈n/64⌉·(f·sizeof(T) + 4) bytes and its id list —
// the same 1/64 again. One read at TMax 2 and at TMax 4 holds two blocks. A
// block is not capped by what the graph's adjacency would have cost: on a
// graph with f ≫ d̄ it is the larger of the two, and serving through it still
// beats recomputing its hops (ARCHITECTURE.md, "The depth-h layer", has the
// measurements). On Linux each block's 2 MiB-aligned interior is advised onto
// transparent huge pages when it is allocated (memo_linux.go): a gather
// across the block misses the TLB far less, and touching one row makes its
// whole 2 MiB resident.
//
// Rows are filled lazily by whichever batch needs them first, into
// publish-once slots — empty → filling (one CAS winner computes the row from
// X^(0) into the block) → ready — so concurrent Infer callers need no lock: a
// reader that sees ready reads a row no one writes any more. The one
// invariant is publish before read: a batch makes every row of its ball ready
// — computing the empty ones itself, waiting for the ones another batch is
// filling — before its hop h+1 starts. Slots only go back to empty, and the
// arrays are only reallocated, in invalidate, invalidateAll and grow, which
// run under the same exclusion as every other graph mutation (never
// concurrently with Infer).
//
// A row is the bits the tier's kernel wrote for it, and it is dropped whenever
// those bits could change. At f64 and f32, X^(h)_v reads the rows of Â within
// h−1 hops of v and the features of nodes within h hops (features of existing
// nodes never change without a Refresh), so a delta empties the rows within
// h−1 hops of the rows of Â it moved; at int8 it empties every row, because a
// moved per-tensor scale moves every row. A hub layer is emptied whole by any
// delta: a superset of the rows whose bits could move, at most ⌈n/64⌉ rows to
// recompute. So reading the layer is bit-identical to computing its hops,
// within each tier.
type hopLayer[T float64 | float32] struct {
	depth int
	f     int
	// members lists the nodes a hub layer holds rows for, ascending, fixed
	// when it is allocated; nil for a layer of every node.
	members []int
	state   []atomic.Uint32 // per row: slotEmpty, slotFilling or slotReady
	// block holds row k at [k·f, (k+1)·f): node k's, or a hub layer's
	// members[k]'s. A whole layer's capacity beyond the graph's rows is the
	// headroom: growing by a few nodes does not copy it.
	block []T
	// huge is the part of block advised onto huge pages (adviseHugePages;
	// nil: none).
	huge  []byte
	stats *hop1Counters // the owning deployment's
}

// hop1Counters are scraped by /metrics (Hop1Stats), summed over every layer
// the deployment holds; Result.MACs keeps the paper's books and cannot show
// the saving.
type hop1Counters struct {
	fromMemo, computed, invalidated atomic.Uint64
	entries, capacity, bytes        atomic.Int64
}

const (
	slotEmpty uint32 = iota
	slotFilling
	slotReady
)

// layerDepth is the depth of the layer a batch at opt.TMax reads (hopLayer).
func (t *tier[T]) layerDepth(tmax int) int {
	if t.int8() {
		return 1
	}
	return max(1, tmax-2)
}

// layer returns the tier's depth-h layer, allocating it, every row empty, on
// the first read.
func (t *tier[T]) layer(h int) *hopLayer[T] { return t.load(&t.layers[h], h, false) }

// hubLayer returns the tier's depth-l hub layer, allocating it, every row
// empty, on the first read.
func (t *tier[T]) hubLayer(l int) *hopLayer[T] { return t.load(&t.hubs[l], l, true) }

// load returns the layer at p, allocating it on the first read: of every
// node, or of the hubs.
func (t *tier[T]) load(p *atomic.Pointer[hopLayer[T]], depth int, hubs bool) *hopLayer[T] {
	if m := p.Load(); m != nil {
		return m
	}
	t.alloc.Lock()
	defer t.alloc.Unlock()
	if p.Load() == nil {
		g := t.d.Graph
		m := &hopLayer[T]{depth: depth, f: g.F(), stats: &t.d.memoStats}
		if hubs {
			m.members = hubMembers(g.Adj, (g.N()+63)/64)
		}
		m.grow(g.N())
		p.Store(m)
	}
	return p.Load()
}

// hubMembers returns the k nodes of highest degree, ties broken toward the
// lower id, ascending: one counting pass over the degrees finds the degree
// the k-th hub has, one more pass over the nodes takes every node above it
// and the first ones at it.
func hubMembers(adj *sparse.CSR, k int) []int {
	n := adj.Rows
	k = min(k, n)
	top := 0
	for v := 0; v < n; v++ {
		top = max(top, adj.RowNNZ(v))
	}
	count := make([]int, top+1)
	for v := 0; v < n; v++ {
		count[adj.RowNNZ(v)]++
	}
	cut, above := top, 0 // the k-th hub's degree, and how many nodes exceed it
	for cut > 0 && above+count[cut] < k {
		above += count[cut]
		cut--
	}
	members, atCut := make([]int, 0, k), k-above
	for v := 0; v < n && len(members) < k; v++ {
		switch d := adj.RowNNZ(v); {
		case d > cut:
			members = append(members, v)
		case d == cut && atCut > 0:
			members = append(members, v)
			atCut--
		}
	}
	return members
}

// grow extends the layer to n nodes; the new rows are empty. Past the
// headroom the arrays move, to n rows and their 1/64, and the new block is
// advised onto huge pages before the old rows are copied in. A hub layer's
// rows are its members', allocated once without headroom: growing the graph
// leaves it as it is. Not concurrent with Infer.
func (m *hopLayer[T]) grow(n int) {
	room := n + n/64
	if m.members != nil {
		n, room = len(m.members), len(m.members)
	}
	old := len(m.state)
	if n > cap(m.state) {
		m.state = append(make([]atomic.Uint32, 0, room), m.state...)
		block := make([]T, 0, room*m.f)
		m.huge = adviseHugePages(block)
		m.block = append(block, m.block...)
	}
	m.state, m.block = m.state[:n], m.block[:n*m.f]
	m.stats.capacity.Add(int64(n - old))
	m.stats.bytes.Add(int64((n - old) * (int(unsafe.Sizeof(*new(T)))*m.f + 4)))
}

// drop empties one row. Not concurrent with Infer.
func (m *hopLayer[T]) drop(v int) {
	if m.state[v].Swap(slotEmpty) != slotEmpty {
		m.stats.entries.Add(-1)
		m.stats.invalidated.Add(1)
	}
}

// invalidate empties the given rows.
func (m *hopLayer[T]) invalidate(rows []int) {
	for _, v := range rows {
		m.drop(v)
	}
}

// invalidateAll empties every row.
func (m *hopLayer[T]) invalidateAll() {
	for v := range m.state {
		m.drop(v)
	}
}

// ensureLayer makes layer m resident for every node of the given lists —
// together the batch's radius-(TMax−h) ball, each node once. Rows that are
// not ready are claimed (the slot's CAS) as the walk meets them, computed from
// X^(0) straight into the block (propagate: hops below h over their nested
// balls in pooled scratch) and published; a row another batch claimed first
// is waited for, after this batch has published its own, so two batches that
// each hold rows the other needs cannot wait on each other. On return every
// listed row is ready and stays so until the next delta: publish before read.
// The walk charges nothing: hop h's books come from the batch's BFS, whoever
// computed the rows (like MACBreakdown.Stationary charges a cost the cache
// saved).
func (t *tier[T]) ensureLayer(sc *inferScratch[T], m *hopLayer[T], lists ...[]int) {
	total := 0
	won, lost := sc.claimed[:0], sc.awaited[:0]
	for _, list := range lists {
		total += len(list)
		for _, v := range list {
			switch {
			case m.state[v].Load() == slotReady:
			case m.state[v].CompareAndSwap(slotEmpty, slotFilling):
				won = append(won, v)
			default:
				lost = append(lost, v)
			}
		}
	}
	if len(won) > 0 {
		propagate(t.d.Adj, t.adjScale, t.base, won, won, m.depth, sc.f, m.block, &sc.hopScratch)
		for _, v := range won {
			m.state[v].Store(slotReady)
		}
		m.stats.entries.Add(int64(len(won)))
	}
	for _, v := range lost {
		for m.state[v].Load() != slotReady {
			runtime.Gosched()
		}
	}
	m.stats.fromMemo.Add(uint64(total - len(won)))
	m.stats.computed.Add(uint64(len(won)))
	// Shaped after use, their extent being this pass's outcome: a cold
	// batch's lists do not outlive it in the pool.
	sc.claimed = growScratch(won, len(won))
	sc.awaited = growScratch(lost, len(lost))
}

// hubRows is the first half of hop m.depth's product over rows (ascending)
// with hub layer m, out holding the hop's row of node v at toLocal[v]: a
// member whose row is ready is copied into out and left out of the product; a
// member whose empty slot this batch claims is listed in claimed, for
// publishHubs once the product has written its row; every other row — a
// member another batch is still filling among them, computed rather than
// waited for — is appended to compute, the rows the product runs over. It
// returns compute and claimed.
func (m *hopLayer[T]) hubRows(rows []int, toLocal []int32, out []T, compute, claimed []int) ([]int, []int) {
	f, members := m.f, m.members
	k, ready := 0, 0
	for _, v := range rows {
		for k < len(members) && members[k] < v {
			k++
		}
		if k < len(members) && members[k] == v {
			switch {
			case m.state[k].Load() == slotReady:
				copy(out[int(toLocal[v])*f:][:f], m.block[k*f:][:f])
				ready++
				continue
			case m.state[k].CompareAndSwap(slotEmpty, slotFilling):
				claimed = append(claimed, k)
			}
		}
		compute = append(compute, v)
	}
	m.stats.fromMemo.Add(uint64(ready))
	return compute, claimed
}

// publishHubs is the second half: it copies the rows of the members hubRows
// claimed, which the product wrote into out, into hub layer m and publishes
// them.
func (m *hopLayer[T]) publishHubs(claimed []int, toLocal []int32, out []T) {
	f := m.f
	for _, k := range claimed {
		copy(m.block[k*f:][:f], out[int(toLocal[m.members[k]])*f:][:f])
		m.state[k].Store(slotReady)
	}
	m.stats.entries.Add(int64(len(claimed)))
	m.stats.computed.Add(uint64(len(claimed)))
}

// hopScratch is what propagate holds besides its output: the BFS's bitset
// (graph.NewBitset, all zero between calls), its rings and sorted balls, a
// global→local map (all −1 between calls) and the two buffers its
// intermediate hops alternate between.
type hopScratch[T float64 | float32] struct {
	set  []uint64
	fill rings
	idx  []int32
	bufs [2][]T
	// hw is the largest buffer the batches since the last shrink asked for.
	hw int
}

// bitset returns the BFS bitset, sized for n nodes (graph.NewBitset).
func (hs *hopScratch[T]) bitset(n int) []uint64 {
	if len(hs.set) < 2*((n+63)/64) {
		hs.set = graph.NewBitset(n)
	}
	return hs.set
}

// buf returns intermediate buffer i cut to need elements (growScratch).
func (hs *hopScratch[T]) buf(i, need int) []T {
	hs.hw = max(hs.hw, need)
	hs.bufs[i] = growScratch(hs.bufs[i], need)
	return hs.bufs[i]
}

// shrink applies the scratch retention policy between batches, against the
// last batch's largest need, so a cold fill's whole-graph hops and balls do
// not stay pinned in the pool by the warm batches after it, which fill little
// or nothing.
func (hs *hopScratch[T]) shrink() {
	for i, b := range hs.bufs {
		if oversized(cap(b), hs.hw) {
			hs.bufs[i] = nil
		}
	}
	hs.hw = 0
	hs.fill.shrink()
}

// propagate writes X^(l) = Â^l·X^(0) for the nodes of rows (l ≥ 1, no
// duplicates) into out, row outRows[k] holding rows[k]'s (nil: row k), at the
// element type of x0, X^(0) as a tier's operand — at int8 only for l = 1,
// whose later hops quantize per batch. Hop j runs over the radius-(l−j) ball
// of rows, hops below l into hs in their balls' compact coordinates; no layer
// is read. Every row adds its terms in the one ascending order every product
// uses, so it is bit-equal to that row of a full-graph propagation.
func propagate[T float64 | float32](adj *sparse.Normalized, adjScale float64, x0 operand[T], rows, outRows []int, l, f int, out []T, hs *hopScratch[T]) {
	in, colMap := x0, []int32(nil)
	if l > 1 {
		if x0.qx != nil {
			panic("core: propagate past hop 1 at int8")
		}
		if n := adj.N(); len(hs.idx) < n {
			hs.idx = graph.NewIndex(n)
		}
		hs.fill.run(adj.Adj, rows, l-1, l-1, hs.bitset(adj.N()))
		balls := hs.fill.balls // hop j runs over balls[l−j]
		for j := 1; j < l; j++ {
			buf := hs.buf(j%2, len(balls[l-j])*f)
			mulRows(adj, adjScale, in, balls[l-j], nil, colMap, f, buf)
			if j > 1 {
				graph.ResetIndex(balls[l-j+1], hs.idx)
			}
			graph.IndexSet(balls[l-j], hs.idx)
			in, colMap = operand[T]{x: buf}, hs.idx
		}
		defer graph.ResetIndex(balls[1], hs.idx)
	}
	mulRows(adj, adjScale, in, rows, outRows, colMap, f, out)
}

// Hop1Stats are the layers' counters, summed over every layer the deployment
// holds, hub layers included: layer rows a batch found resident and rows it
// computed into a layer, rows dropped by deltas (or a rebuild) since start,
// rows currently resident, and the layers' extent — a row per node per block
// plus a row per hub per hub layer (Entries/Capacity is their coverage) and
// the bytes those rows cost.
type Hop1Stats struct {
	FromMemo, Computed, Invalidated uint64
	Entries, Capacity, Bytes        int
}

// Add accumulates another engine's counters field-wise (a router sums its
// workers' reports).
func (s *Hop1Stats) Add(o Hop1Stats) {
	s.FromMemo += o.FromMemo
	s.Computed += o.Computed
	s.Invalidated += o.Invalidated
	s.Entries += o.Entries
	s.Capacity += o.Capacity
	s.Bytes += o.Bytes
}

// Hop1Stats snapshots the layers' counters; safe at any time.
func (d *Deployment) Hop1Stats() Hop1Stats {
	m := &d.memoStats
	return Hop1Stats{
		FromMemo:    m.fromMemo.Load(),
		Computed:    m.computed.Load(),
		Invalidated: m.invalidated.Load(),
		Entries:     int(m.entries.Load()),
		Capacity:    int(m.capacity.Load()),
		Bytes:       int(m.bytes.Load()),
	}
}

// RegisterHop1Metrics exposes a Hop1Stats source on a /metrics registry, read
// at scrape time: the serving front registers its backend's, a shard worker
// process its deployment's.
func RegisterHop1Metrics(reg *obs.Registry, read func() Hop1Stats) {
	rows := reg.GaugeVec("nai_hop1_rows_total",
		"Layer rows a batch read, summed over every resident layer (X^(h), one per operating-point depth, and the hub rows of X^(h+1) beside it) by source: found resident (memo), or computed into it by the SpMM kernel (cumulative).",
		"source")
	rows.WithFunc(func() float64 { return float64(read().FromMemo) }, "memo")
	rows.WithFunc(func() float64 { return float64(read().Computed) }, "computed")
	reg.GaugeFunc("nai_hop1_memo_entries",
		"Rows currently resident, summed over every resident layer, hub rows included.",
		func() float64 { return float64(read().Entries) })
	reg.GaugeFunc("nai_hop1_memo_capacity",
		"Rows the resident layers have room for: one per node per layer, and one per hub (the n/64 highest-degree nodes) per hub layer (entries / capacity is their coverage).",
		func() float64 { return float64(read().Capacity) })
	reg.GaugeFunc("nai_hop1_memo_bytes",
		"Bytes the resident layers' rows occupy when all are resident: per layer a second matrix of the features' shape at the tier's element type, per hub layer 1/64 of one.",
		func() float64 { return float64(read().Bytes) })
	reg.GaugeFunc("nai_hop1_memo_invalidated_total",
		"Layer rows dropped because a delta moved a row of the adjacency within the layer's depth of them, summed over every layer; a delta drops every hub row (cumulative).",
		func() float64 { return float64(read().Invalidated) })
}
