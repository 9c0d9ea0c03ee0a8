package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// hopLayer is a layer of propagated features: X^(h)_v = (Â^h·X^(0))_v for
// every node v, at the active tier's element type, in one flat block
// indexed by node id — a second matrix of X^(0)'s shape beside it. X^(h) is a
// product no request's identity enters, so no batch propagates hops 1..h: a
// batch makes resident the rows it reads (tier.ensureLayer) — its targets'
// at h, which exit decisions and classifiers read in place, and, before each
// product of hop h+1, the rows that product gathers — and hop h+1 gathers from
// the block through the Â operator the way hop 1 would from the feature
// matrix.
//
// The depth a batch reads is its operating point's (layerDepth): h =
// max(1, TMax−2) at every tier, so that what a batch still propagates is its
// survivors' one-ring ball. A whole layer deeper would not pay: a layer per
// hop costs a block per hop, and one deeper than TMax−2 only trades the
// product over the survivors' one-ring ball for one over the targets' (their
// own rows below h), while its invalidation (below) reaches further per delta.
//
// What does pay one hop deeper is the hubs' rows. Hop h+1 < TMax gathers
// X^(h) over its survivors' one-ring ball, and on a skewed graph most of that
// gather is the same few highest-degree rows every batch: on a products-like
// graph of 100 000 nodes a warm TMax-4 batch's hop 3 still computes 46.9k
// entries of Â with the 1 563 highest-degree nodes' rows kept, 25.4k with the
// 3 125 highest's, 13.4k with the 6 250 highest's and 6.6k with the 12 500
// highest's (BenchmarkInferDeepWarm's fixture). Each doubling doubles the hub
// rows' bytes, and the 12 500's (4.0 MB at f64, against a whole X^(3)'s 32 MB)
// are paid for by what holds no copy of the graph's degrees: Â's shared degree
// factors and a stationary state that reads d_i+1 off the adjacency.
// So a tier also keeps X^(h+1) for the hubCount(n) = ⌈n/8⌉ highest-degree
// nodes (hubMembers) whenever h+1 < TMax: a hub layer, this type over an
// n-entry slot index, its k-th hub's row at row k in node order. Hop h+1
// neither computes nor copies a ready hub row: the batch's level h+1 refers to
// it where it lies (its index holds −2−k), so decisions and classifiers at
// h+1 read it there, and hop h+2 — which is TMax whenever hubs exist — gathers
// it there, the hub block being its product's second operand
// (sparse.MulNormalizedRowsSplitInto). Hop h+1 copies the hub rows it
// computed into the layer after its product, those still not ready then
// (hubRows, publishHubs); a hub row is never waited for, so hub rows add no
// publish-before-read edge. TMax ≤ 2 has no hop h+1 < TMax.
//
// The memory contract is one block per depth some batch has read, allocated
// on that first read — not when the engine is rebuilt (Refresh,
// SetPrecision) — and touched only where a request has needed a
// row. A deployment served at one operating point, as every server is, holds
// exactly one: a row, a ready bit and a closed bit per node plus 1/64 of
// headroom for the nodes deltas append, at most layerBytes(n + n/64, f, 2)
// bytes, and beside it, past TMax 2, one hub layer of layerBytes(⌈n/8⌉, f, 1)
// bytes and its slot index of 4 bytes a node — 1/8 of a block more. One read at TMax 2 and at TMax 4 holds two blocks. A
// block is not capped by what the graph's adjacency would have cost: on a
// graph with f ≫ d̄ it is the larger of the two, and serving through it still
// beats recomputing its hops (ARCHITECTURE.md, "The depth-h layer", has the
// measurements). On Linux each block's 2 MiB-aligned interior is advised onto
// transparent huge pages when it is allocated (memo_linux.go): a gather
// across the block misses the TLB far less, and touching one row makes its
// whole 2 MiB resident.
//
// Rows are filled lazily by whichever batch needs them first. Each row has a
// ready bit, n/8 bytes a layer, so a batch checks the rows it is about to read
// in cache that the block does not fit; a reader that sees a row ready reads
// bits no one writes any more, without a lock. Writes take the layer's lock:
// a batch lists the rows it needs that are not ready, and under mu drops those
// another batch published meanwhile, computes the rest from X^(0) into the
// block and sets their bits. Every fill already runs on every core inside the
// row driver, so the lock serializes only what concurrent batches would
// otherwise have computed twice or split. The one invariant is publish before
// read: before each product of hop h+1, every row of X^(h) it gathers is
// ready, and so is every target's row before the batch's wave at h. A batch
// holds at most one lock at a time, so no lock order exists. Beside the ready
// bits a layer of every node keeps a closed bit a row, set — without the lock,
// by a compare-and-swap — once every row that row's row of Â gathers is
// ready, so a product over a closed row skips its readiness walk: a warm hop
// h+1 walks only the rows it has not met since the last delta. Ready and
// closed bits only go back to empty, and the arrays are only reallocated, in
// invalidate, invalidateAll and grow, which run under the same exclusion as
// every other graph mutation (never concurrently with Infer); any
// invalidation clears every closed bit.
//
// A row is the bits the tier's kernel wrote for it, and it is dropped whenever
// those bits could change. X^(h)_v reads the rows of Â within h−1 hops of v
// and the features of nodes within h hops — at int8 their quantized rows, each
// at its own scale (features of existing nodes never change without a
// Refresh) — so a delta empties the rows within h−1 hops of the rows of Â it
// moved. A hub layer is emptied whole by any delta: a superset of the rows
// whose bits could move, at most ⌈n/8⌉ rows to recompute. So reading the
// layer is bit-identical to computing its hops, within each tier.
type hopLayer[T float64 | float32] struct {
	depth int
	f     int
	// slot is a hub layer's index, fixed when it is allocated: slot[v] is node
	// v's row, −1 for a node that is no hub (and nodes appended since lie past
	// its end); nil for a layer of every node.
	slot []int32
	// ready has a bit per row (row k at bit k&63 of word k>>6), set once the
	// row's bits in block are final.
	ready []atomic.Uint64
	// closed has a bit per row of a layer of every node, set once every row
	// that row v of Â gathers — v's neighbours' and its own — is ready, so a
	// product over v needs no readiness walk (ensureLayer). Any invalidation
	// clears every bit; nil in a hub layer.
	closed []atomic.Uint64
	// mu is held while rows are written into block and their bits set.
	mu sync.Mutex
	// rows is how many rows the layer holds: n, or a hub layer's hubs.
	rows int
	// block holds row k at [k·f, (k+1)·f): node k's, or a hub layer's k-th
	// hub's in node order. A whole layer's capacity beyond the graph's rows is
	// the headroom: growing by a few nodes does not copy it.
	block []T
	// huge is the part of block advised onto huge pages (adviseHugePages;
	// nil: none).
	huge  []byte
	stats *hop1Counters // the owning deployment's
}

// hop1Counters are scraped by /metrics (Hop1Stats), summed over every layer
// the deployment holds: the rows the layers saved computing.
type hop1Counters struct {
	fromMemo, computed, invalidated atomic.Uint64
	entries, capacity, bytes        atomic.Int64
}

// layerDepth is the depth of the layer a batch at opt.TMax reads (hopLayer).
func layerDepth(tmax int) int { return max(1, tmax-2) }

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
			members := hubMembers(g.Adj, hubCount(g.N()))
			m.slot = graph.NewIndex(g.N())
			for k, v := range members {
				m.slot[v] = int32(k)
			}
			m.stats.bytes.Add(int64(4 * len(m.slot)))
			m.grow(len(members))
		} else {
			m.grow(g.N())
		}
		p.Store(m)
	}
	return p.Load()
}

// hubCount is how many nodes of an n-node graph a hub layer holds rows
// for: ⌈n/8⌉.
func hubCount(n int) int { return (n + 7) / 8 }

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

// grow extends the layer to n rows; the new rows are empty. Past the
// headroom the arrays move, to mat.Headroom(n) rows — the rule every per-node
// array a delta extends grows by — and the new block is advised onto huge
// pages before the old rows are copied in. A hub layer's rows are its hubs',
// allocated once without headroom: growing the graph leaves it as it is. Not
// concurrent with Infer.
func (m *hopLayer[T]) grow(n int) {
	room := mat.Headroom(n)
	if m.slot != nil {
		room = n
	}
	old, words := m.rows, (n+63)/64
	if n*m.f > cap(m.block) {
		block := make([]T, 0, room*m.f)
		m.huge = adviseHugePages(block)
		m.block = append(block, m.block...)
	}
	m.ready = growBits(m.ready, words, room)
	if m.slot == nil {
		m.closed = growBits(m.closed, words, room)
	}
	m.block, m.rows = m.block[:n*m.f], n
	m.stats.capacity.Add(int64(n - old))
	m.stats.bytes.Add(int64(layerBytes[T](n, m.f, m.bitsets()) - layerBytes[T](old, m.f, m.bitsets())))
}

// growBits extends a bitset to words words, moved to room rows' worth when
// that is past its capacity; the new bits are clear.
func growBits(bits []atomic.Uint64, words, room int) []atomic.Uint64 {
	if words > cap(bits) {
		bits = append(make([]atomic.Uint64, 0, (room+63)/64), bits...)
	}
	return bits[:words]
}

// bitsets is how many bits a row of the layer has: ready and closed in a
// layer of every node, ready alone in a hub layer.
func (m *hopLayer[T]) bitsets() int {
	if m.slot != nil {
		return 1
	}
	return 2
}

// layerBytes is what n rows of f columns cost a layer with the given number
// of bits a row: the rows and their bitsets.
func layerBytes[T float64 | float32](n, f, bitsets int) int {
	return n*f*int(unsafe.Sizeof(*new(T))) + bitsets*8*((n+63)/64)
}

// isReady reports whether row k is ready: its bits in block are final until
// the next delta.
func (m *hopLayer[T]) isReady(k int) bool {
	return m.ready[k>>6].Load()&(1<<(uint(k)&63)) != 0
}

// isClosed reports whether row v of a layer of every node is closed: every
// row that row v of Â gathers is ready, until the next delta.
func (m *hopLayer[T]) isClosed(v int) bool {
	return m.closed[v>>6].Load()&(1<<(uint(v)&63)) != 0
}

// closeRows marks rows closed, every row their rows of Â gather being ready:
// one compare-and-swap per word when rows is ascending, and none for a word
// whose bits are all set already. It takes no lock: bits are only ever set
// between deltas, by whichever batch walked the rows first.
func (m *hopLayer[T]) closeRows(rows []int) {
	for i := 0; i < len(rows); {
		w, bits := rows[i]>>6, uint64(0)
		for ; i < len(rows) && rows[i]>>6 == w; i++ {
			bits |= 1 << (uint(rows[i]) & 63)
		}
		for {
			old := m.closed[w].Load()
			if old|bits == old || m.closed[w].CompareAndSwap(old, old|bits) {
				break
			}
		}
	}
}

// slotOf returns node v's row in a hub layer, −1 for a node that is no hub.
func (m *hopLayer[T]) slotOf(v int) int {
	if v < len(m.slot) {
		return int(m.slot[v])
	}
	return -1
}

// publish marks rows ks, whose rows are in block, ready: one store per word
// when ks is ascending. Under mu.
func (m *hopLayer[T]) publish(ks []int) {
	for i := 0; i < len(ks); {
		w, bits := ks[i]>>6, uint64(0)
		for ; i < len(ks) && ks[i]>>6 == w; i++ {
			bits |= 1 << (uint(ks[i]) & 63)
		}
		m.ready[w].Store(m.ready[w].Load() | bits)
	}
	m.stats.entries.Add(int64(len(ks)))
}

// drop empties one row. Not concurrent with Infer.
func (m *hopLayer[T]) drop(v int) {
	w, bit := v>>6, uint64(1)<<(uint(v)&63)
	if old := m.ready[w].Load(); old&bit != 0 {
		m.ready[w].Store(old &^ bit)
		m.stats.entries.Add(-1)
		m.stats.invalidated.Add(1)
	}
}

// invalidate empties the given rows and opens every row.
func (m *hopLayer[T]) invalidate(rows []int) {
	for _, v := range rows {
		m.drop(v)
	}
	m.open()
}

// invalidateAll empties and opens every row.
func (m *hopLayer[T]) invalidateAll() {
	for v := 0; v < m.rows; v++ {
		m.drop(v)
	}
	m.open()
}

// open clears every closed bit: a closed row vouches for the rows its row of
// Â gathers, any of which an invalidation may have emptied, and finding the
// rows that gather an emptied one would cost a walk, so the bits go whole, as
// a hub layer's rows do. Not concurrent with Infer.
func (m *hopLayer[T]) open() {
	for i := range m.closed {
		m.closed[i].Store(0)
	}
}

// ensureLayer makes ready the rows of layer m the batch reads next and has
// not read before (sc.seen): rows themselves, or with gathered the columns of
// Â in rows — each row's neighbours and the row itself, what a product over
// rows gathers. A closed row's columns are all ready, so with gathered the
// walk skips it. The walk lists the rows that are not ready; if there are any,
// it takes m's lock, drops the ones another batch published meanwhile, and
// computes the rest, sorted, from X^(0) straight into the block (the hops
// below h over their nested balls into the batch's levels, hopScratch.below)
// before publishing them. On return every row the walk met is ready and stays
// so until the next delta: publish before read. So with gathered every row of
// rows is then closed, and this call closes those that were not. A row the
// walk met counts once per batch: as computed when this call filled it, else
// as read from the layer; a closed row counts its entries of Â as read, the
// rows it gathers not being walked. Books charges hop h whoever computed the
// rows (as MACBreakdown.Stationary charges a cost the cache saved).
func (t *tier[T]) ensureLayer(sc *inferScratch[T], m *hopLayer[T], rows []int, gathered bool) {
	adj, seen := t.d.Graph.Adj, sc.seen
	missing, read := sc.missing[:0], 0
	for _, v := range rows {
		cols := adj.RowIndices(v)
		if !gathered {
			cols = nil
		} else if m.isClosed(v) {
			read += len(cols) + 1
			continue
		}
		for i := -1; i < len(cols); i++ { // c is v, then its columns
			c := v
			if i >= 0 {
				c = int(cols[i])
			}
			// Branch-free but for the rare row that is neither read before
			// nor ready; the bitsets stay in cache where the block does not.
			w, at := c>>6, uint(c)&63
			old := seen[w]
			seen[w] = old | 1<<at
			read += int(^old>>at) & 1
			if (old|m.ready[w].Load())>>at&1 == 0 {
				missing = append(missing, c)
			}
		}
	}
	if len(missing) > 0 {
		m.mu.Lock()
		missing = slices.DeleteFunc(missing, m.isReady)
		if len(missing) > 0 {
			slices.Sort(missing) // the fill reads and writes in node order
			in, colMap := sc.below(t.d.Adj, t.base, missing, m.depth, sc.f)
			mulRows(t.d.Adj, in, missing, missing, colMap, sc.f, m.block)
			m.publish(missing)
		}
		m.mu.Unlock()
	}
	if gathered {
		m.closeRows(rows)
	}
	m.stats.fromMemo.Add(uint64(read - len(missing)))
	m.stats.computed.Add(uint64(len(missing)))
	// Shaped after use, its extent being this pass's outcome: a cold batch's
	// list does not outlive it in the pool.
	sc.missing = growScratch(missing, len(missing))
}

// hubRows is the first half of hop m.depth's product over rows (ascending)
// into level lv, with hub layer m: a row lv holds is skipped; a hub whose row
// is ready is left where it lies, lv referring to it (hopLevel.refer), and out
// of the product; every other row is appended to compute, the rows the
// product runs over, and a hub among them to fresh, for publishHubs once the
// product has written its row. It returns compute and fresh.
func (m *hopLayer[T]) hubRows(rows []int, lv *hopLevel[T], compute, fresh []int) ([]int, []int) {
	ready := 0
	for _, v := range rows {
		if lv.idx[v] != -1 {
			continue
		}
		if k := m.slotOf(v); k >= 0 {
			if m.isReady(k) {
				lv.refer(v, k, m.block)
				ready++
				continue
			}
			fresh = append(fresh, v)
		}
		compute = append(compute, v)
	}
	m.stats.fromMemo.Add(uint64(ready))
	return compute, fresh
}

// publishHubs is the second half: under m's lock it copies the rows of the
// hubs in fresh (node ids, ascending) that are still not ready, which the
// product wrote into lv, into hub layer m and publishes them; another batch
// may have published the rest since hubRows, with the same bits.
func (m *hopLayer[T]) publishHubs(fresh []int, lv *hopLevel[T]) {
	f := m.f
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh = slices.DeleteFunc(fresh, func(v int) bool { return m.isReady(m.slotOf(v)) })
	for i, v := range fresh {
		k := m.slotOf(v)
		copy(m.block[k*f:][:f], lv.row(v, f))
		fresh[i] = k
	}
	m.publish(fresh)
	m.stats.computed.Add(uint64(len(fresh)))
}

// hopScratch is the rows a batch computes, by depth and node id: levels[j]
// holds the rows of X^(j) it computed since the last reset — its own hops',
// and those of the hops below h its layer fills computed — so each row is
// computed once per batch. Beside them, the BFS's bitset (graph.NewBitset, all
// zero between calls) and the fills' rings and sorted balls.
type hopScratch[T float64 | float32] struct {
	set  []uint64
	fill rings
	// levels[j] holds rows of X^(j), j ≥ 1.
	levels []hopLevel[T]
	// hw is the most elements a level's rows held since the last shrink.
	hw int
}

// hopLevel is rows of one hop X^(j): node nodes[k]'s at row k of x, and
// idx[v] = k; or, for a node in refs, its row k of a hub layer's block hub,
// read there, and idx[v] = −2−k. idx[v] is −1 for a node without a row, all
// −1 after reset.
type hopLevel[T float64 | float32] struct {
	idx   []int32
	nodes []int
	x     []T
	refs  []int
	hub   []T
}

// bitset returns the BFS bitset, sized for n nodes (graph.NewBitset).
func (hs *hopScratch[T]) bitset(n int) []uint64 {
	if len(hs.set) < 2*((n+63)/64) {
		hs.set = graph.NewBitset(n)
	}
	return hs.set
}

// level returns X^(j)'s rows, on an n-node graph.
func (hs *hopScratch[T]) level(j, n int) *hopLevel[T] {
	if len(hs.levels) <= j {
		hs.levels = slices.Grow(hs.levels, j+1-len(hs.levels))[:j+1]
	}
	lv := &hs.levels[j]
	if len(lv.idx) < n {
		lv.idx = graph.NewIndex(n)
	}
	return lv
}

// add gives each of nodes the level holds no row for a row after its last,
// and returns those nodes; the caller writes their rows.
func (lv *hopLevel[T]) add(nodes []int, f int) []int {
	have := len(lv.nodes)
	for _, v := range nodes {
		if lv.idx[v] == -1 {
			lv.idx[v] = int32(len(lv.nodes))
			lv.nodes = append(lv.nodes, v)
		}
	}
	lv.x = slices.Grow(lv.x, (len(lv.nodes)-have)*f)[:len(lv.nodes)*f]
	return lv.nodes[have:]
}

// refer gives node v the row k of hub, a hub layer's block, read in place.
func (lv *hopLevel[T]) refer(v, k int, hub []T) {
	lv.idx[v] = int32(-2 - k)
	lv.refs = append(lv.refs, v)
	lv.hub = hub
}

// row returns node v's row, which the level holds: in x, or in hub.
func (lv *hopLevel[T]) row(v, f int) []T {
	k := int(lv.idx[v])
	if k < -1 {
		return lv.hub[(-2-k)*f:][:f]
	}
	return lv.x[k*f:][:f]
}

// extend computes into the level, from X^(j−1) (in, through colMap), the rows
// of the nodes given that it does not hold yet.
func (lv *hopLevel[T]) extend(adj *sparse.Normalized, in operand[T], colMap []int32, nodes []int, f int) {
	added := lv.add(nodes, f)
	mulRows(adj, in, added, nil, colMap, f, lv.x[len(lv.x)-len(added)*f:])
}

// reset drops every level's rows, before a batch: the graph may have changed
// since the last.
func (hs *hopScratch[T]) reset() {
	for j := range hs.levels {
		lv := &hs.levels[j]
		hs.hw = max(hs.hw, len(lv.x))
		graph.ResetIndex(lv.nodes, lv.idx)
		graph.ResetIndex(lv.refs, lv.idx)
		lv.nodes, lv.x, lv.refs, lv.hub = lv.nodes[:0], lv.x[:0], lv.refs[:0], nil
	}
}

// shrink applies the scratch retention policy between batches, to each level
// against the largest since the last shrink, so a deep batch's or a cold
// fill's ball-sized levels do not stay pinned in the pool by the small
// batches after it.
func (hs *hopScratch[T]) shrink() {
	for j := range hs.levels {
		if lv := &hs.levels[j]; oversized(cap(lv.x), hs.hw) {
			lv.nodes, lv.x, lv.refs = nil, nil, nil
		}
	}
	hs.hw = 0
	hs.fill.shrink()
}

func (hs *hopScratch[T]) bytes() int {
	b := capBytes(hs.set) + hs.fill.bytes() + capBytes(hs.levels)
	for _, lv := range hs.levels {
		b += capBytes(lv.idx) + capBytes(lv.nodes) + capBytes(lv.x) + capBytes(lv.refs)
	}
	return b
}

// below fills levels 1..l−1 with X^(j) over the radius-(l−j) ball of rows,
// X^(0) being a tier's operand, skipping the rows a level holds; no layer is
// read. It returns X^(l−1) as a product of hop l over rows reads it: its
// operand and colMap (X^(0) by node id at l = 1). Every row adds its terms in
// the one ascending order every product uses, so it is bit-equal to that row
// of a full-graph propagation.
func (hs *hopScratch[T]) below(adj *sparse.Normalized, x0 operand[T], rows []int, l, f int) (operand[T], []int32) {
	in, colMap := x0, []int32(nil)
	if l > 1 {
		hs.fill.run(adj.Adj, rows, l-1, l-1, hs.bitset(adj.N()))
		for j := 1; j < l; j++ {
			lv := hs.level(j, adj.N())
			lv.extend(adj, in, colMap, hs.fill.balls[l-j], f)
			in, colMap = operand[T]{x: lv.x}, lv.idx
		}
	}
	return in, colMap
}

// Hop1Stats are the layers' counters, summed over every layer the deployment
// holds, hub layers included: FromMemo counts what batches read from the
// layers without filling it — once per batch each layer row a readiness walk
// met and did not fill (found resident, or published by another batch while
// the walk waited for the layer's lock), each entry of Â a closed row gathers
// (no walk meets those rows), and each hub row read in place; Computed counts
// the rows batches filled and published. Then
// the rows dropped by deltas (or a rebuild) since start, rows currently
// resident, and the layers' extent — a row per node per block plus a row per
// hub per hub layer (Entries/Capacity is their coverage) — and the bytes the
// layers hold: their rows, their bits (ready and closed, two a row, in a layer
// of every node; ready alone, one a row, in a hub layer) and each hub layer's
// slot index, 4 bytes a node.
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
		"Layer rows batches read, summed over every resident layer (X^(h), one per operating-point depth, and the hub rows of X^(h+1) beside it) by source: memo counts once per batch each row a readiness walk met without filling it (the targets' rows at h and the rows hop h+1 gathers), found ready or published by another batch while it waited for the layer's lock, one per entry of the adjacency a closed row gathers (every row it reads was ready, so no walk meets them), and each hub row read in place; computed counts each row it filled and published under the layer's lock (cumulative).",
		"source")
	rows.WithFunc(func() float64 { return float64(read().FromMemo) }, "memo")
	rows.WithFunc(func() float64 { return float64(read().Computed) }, "computed")
	reg.GaugeFunc("nai_hop1_memo_entries",
		"Rows currently resident, summed over every resident layer, hub rows included.",
		func() float64 { return float64(read().Entries) })
	reg.GaugeFunc("nai_hop1_memo_capacity",
		"Rows the resident layers have room for: one per node per layer, and one per hub (the n/8 highest-degree nodes) per hub layer (entries / capacity is their coverage).",
		func() float64 { return float64(read().Capacity) })
	reg.GaugeFunc("nai_hop1_memo_bytes",
		"Bytes the resident layers hold when all their rows are resident: per layer a second matrix of the features' shape at the tier's element type and two bits a row (ready and closed); per hub layer the rows of the n/8 highest-degree nodes, one ready bit a row, and a slot index of 4 bytes a node.",
		func() float64 { return float64(read().Bytes) })
	reg.GaugeFunc("nai_hop1_memo_invalidated_total",
		"Layer rows dropped because a delta moved a row of the adjacency within the layer's depth of them, summed over every layer; a delta drops every hub row (cumulative).",
		func() float64 { return float64(read().Invalidated) })
}
