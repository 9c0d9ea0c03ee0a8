package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sparse"
)

// hop1Memo keeps X^(1)_v = (ÂX^(0))_v, at the active tier's slab element type,
// for as many rows as its budget holds, so hop 1 — a product no request's
// identity enters — stops being recomputed by every request. The budget is
// not a setting but an identity (memoBudget): the bytes a materialized Â of
// this graph would occupy, which the deployment no longer spends because it
// serves Â from the graph's own pattern, minus the two factor vectors it holds
// instead. So a deployment with its memo full is never larger than one that
// materialized Â and had no memo. Whether every row fits is a property of the
// graph — a row of Â costs 16 B per entry, a memo slot 8·f + 8 — so on the
// benchmark fixture (23.4 neighbors, f = 40) all do, and on a graph with
// f ≫ d̄ the memo is partial and holds the top-degree rows: a neighbor is
// reached with probability ∝ its degree and its row costs ∝ its degree, so
// those carry the largest share of every ball's hop-1 work.
//
// When every node is a member (complete) the memo is not a cache beside the
// engine but a layer of it: slot v is node v, the block is X^(1) indexed by
// node id, and on the float tiers a batch never copies a row out of it — hop 2
// gathers from the block through the Â operator the way hop 1 gathers from the
// feature matrix, and exit decisions and classifiers read the targets' depth-1
// rows in place (tier.layered, tier.ensureLayer). The one invariant that adds
// is publish before read: a batch makes every row of its radius-(TMax−1) ball
// ready — computing the empty ones itself, waiting for the ones another batch
// is filling — before its hop 2 starts. A partial memo, and the int8 tier at
// any coverage, serve hop 1 into the batch's slab as a cache would
// (propagateHop1).
//
// Membership is selected at reset (whenever the engine is rebuilt: Refresh,
// SetPrecision, NewDeploymentWithState) and only ever extended after that:
// the nodes a delta appends — the paper's inductive newcomers, whose ids are
// above every member's — get slots at the end of the same block while the
// budget, re-evaluated on the grown graph, allows (grow), so a complete memo
// stays complete. Rows are filled lazily by whichever request computes them
// first, into publish-once slots — empty → filling (one CAS winner writes the
// row) → ready — so concurrent Infer callers need no lock: a reader that sees
// ready reads a row no one writes any more. Slots only go back to empty, and
// the slot arrays are only reallocated, in invalidate, invalidateAll, grow and
// reset, which run under the same exclusion as every other graph mutation
// (never concurrently with Infer).
//
// A memoized row is the bits the tier's kernel wrote for it, and it is
// dropped whenever those bits could change: at f64 and f32 when the values of
// row v of Â move (untouched rows are emitted and lowered to the same bits, and
// features of existing nodes never change without a Refresh), at int8 on
// every patch, because a moved per-tensor scale moves every row. So serving
// from the memo is bit-identical to computing, within each tier. A memo with
// no slots is valid: every row is a miss.
type hop1Memo[T float64 | float32] struct {
	f int
	// budget is the bytes the memo may hold when serving adj: memoBudget
	// (tests pin constants to size it).
	budget func(adj *sparse.Normalized) int
	n      int     // rows of the graph membership was last settled on
	ids    []int32 // member node ids, ascending
	// dense counts the leading slots with ids[k] == k: a node below it is its
	// own slot, found without a search (every node, when all rows fit).
	dense int
	state []atomic.Uint32 // per slot: slotEmpty, slotFilling or slotReady
	// block holds slot k's row at [k·f, (k+1)·f). Its capacity beyond the
	// slots selected at reset is what the budget leaves, up to 1/64 of them:
	// room for the rows deltas append, so growing a complete memo does not
	// copy it.
	block []T
	stats *hop1Counters // the owning deployment's
}

// hop1Counters are scraped by /metrics (Hop1Stats); Result.MACs keeps the
// paper's books and cannot show the saving.
type hop1Counters struct {
	fromMemo, computed, invalidated atomic.Uint64
	entries, capacity, bytes        atomic.Int64
}

const (
	slotEmpty uint32 = iota
	slotFilling
	slotReady
)

// memoBudget is the byte budget of a deployment serving adj: what Â would
// cost as a CSR — 8·(n+1) of row pointers and 16 per entry — minus the 16·n
// of degree factors held in its place.
func memoBudget(adj *sparse.Normalized) int {
	n := adj.N()
	return 8*(n+1) + 16*adj.NNZ() - 16*n
}

// slotBytes is what one memoized row costs: f elements, its id, its state.
func (m *hop1Memo[T]) slotBytes(f int) int { return int(unsafe.Sizeof(*new(T)))*f + 4 + 4 }

// slotsFor is how many slots the memo has when serving adj — one per row, or
// as many as the budget pays for — and how many more the budget would pay for.
func (m *hop1Memo[T]) slotsFor(adj *sparse.Normalized) (slots, spare int) {
	paid := m.budget(adj) / m.slotBytes(m.f)
	slots = min(paid, adj.N())
	return slots, paid - slots
}

// reset drops every row and re-selects the members for adj: the top-degree
// rows that fit budget(adj) bytes (ties at the cut-off degree go to the
// lowest ids), found with one degree histogram — O(n), no sort.
func (m *hop1Memo[T]) reset(adj *sparse.Normalized, f int, budget func(*sparse.Normalized) int) {
	m.stats.invalidated.Add(uint64(m.stats.entries.Swap(0)))
	n := adj.N()
	m.f, m.budget, m.n, m.dense = f, budget, n, 0
	slots, spare := m.slotsFor(adj)
	room := slots + min(spare, slots/64)
	m.ids = make([]int32, 0, room)
	m.state = make([]atomic.Uint32, slots, room)
	m.block = make([]T, slots*f, room*f)
	defer m.sized()
	if slots == 0 {
		return
	}
	maxDeg := 0
	for i := 0; i < n; i++ {
		maxDeg = max(maxDeg, adj.RowNNZ(i))
	}
	hist := make([]int, maxDeg+1)
	for i := 0; i < n; i++ {
		hist[adj.RowNNZ(i)]++
	}
	cut, atCut := maxDeg, slots // rows of degree > cut all fit; atCut more at cut
	for ; cut > 0 && hist[cut] <= atCut; cut-- {
		atCut -= hist[cut]
	}
	for i := 0; i < n; i++ {
		if d := adj.RowNNZ(i); d > cut {
			m.ids = append(m.ids, int32(i))
		} else if d == cut && atCut > 0 {
			m.ids = append(m.ids, int32(i))
			atCut--
		}
	}
	for m.dense < len(m.ids) && int(m.ids[m.dense]) == m.dense {
		m.dense++
	}
}

// grow extends the membership to the nodes appended since it was last
// settled, in id order, while budget(adj) — the identity on the grown graph —
// has room for another slot. The new slots are empty. Not concurrent with
// Infer.
func (m *hop1Memo[T]) grow(adj *sparse.Normalized) {
	slots, _ := m.slotsFor(adj)
	for v := m.n; v < adj.N() && len(m.ids) < slots; v++ {
		if m.dense == len(m.ids) && m.dense == v {
			m.dense++
		}
		m.ids = append(m.ids, int32(v))
	}
	m.n = adj.N()
	m.state = append(m.state, make([]atomic.Uint32, len(m.ids)-len(m.state))...)
	m.block = append(m.block, make([]T, len(m.ids)*m.f-len(m.block))...)
	m.sized()
}

// sized publishes the memo's extent to the counters.
func (m *hop1Memo[T]) sized() {
	m.stats.capacity.Store(int64(len(m.ids)))
	m.stats.bytes.Store(int64(len(m.ids) * m.slotBytes(m.f)))
}

// find returns the first slot at or after from whose id is ≥ v, and whether
// it is v's. Callers walk ascending node lists, so from only moves forward —
// which is what makes galloping from it O(1) amortized over a walk.
func (m *hop1Memo[T]) find(v, from int) (int, bool) {
	if v < m.dense {
		return v, true
	}
	lo, hi := max(from, m.dense), len(m.ids)
	for probe, step := lo, 1; probe < hi; probe, step = probe+step, 2*step {
		if int(m.ids[probe]) >= v {
			hi = probe
			break
		}
		lo = probe + 1
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(m.ids[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.ids) && int(m.ids[lo]) == v
}

func (m *hop1Memo[T]) row(slot int) []T { return m.block[slot*m.f:][:m.f] }

// complete reports whether every row of the graph has a slot: slot v is node
// v, and the block is X^(1) by node id.
func (m *hop1Memo[T]) complete() bool { return m.dense == m.n }

// publish offers a freshly computed row to an empty slot; losing the CAS
// (another request got there first, with the same bits) is not an error.
func (m *hop1Memo[T]) publish(slot int, row []T) {
	if m.state[slot].CompareAndSwap(slotEmpty, slotFilling) {
		copy(m.row(slot), row)
		m.state[slot].Store(slotReady)
		m.stats.entries.Add(1)
	}
}

// drop empties one slot. Not concurrent with Infer.
func (m *hop1Memo[T]) drop(slot int) {
	if m.state[slot].Swap(slotEmpty) != slotEmpty {
		m.stats.entries.Add(-1)
		m.stats.invalidated.Add(1)
	}
}

// invalidate empties the slots of the given rows (ascending): exactly the
// rows of Â whose values a delta moved.
func (m *hop1Memo[T]) invalidate(dirty []int) {
	slot := 0
	for _, v := range dirty {
		var ok bool
		if slot, ok = m.find(v, slot); ok {
			m.drop(slot)
		}
	}
}

// invalidateAll empties every slot, keeping the membership.
func (m *hop1Memo[T]) invalidateAll() {
	for slot := range m.state {
		m.drop(slot)
	}
}

// propagateHop1 computes X^(1) over rows — the batch's supporting set S,
// ascending, so compact output row k is rows[k] — into sc.hop(1), and returns
// Algorithm 1's MAC count for the hop (every row's nnz × f, served from the
// memo or not, like MACBreakdown.Stationary charges a cost the cache saved).
// It is hop 1 of a batch that is not layered. Ready memo rows are copied, in
// parallel above par.Threshold like the kernel they stand in for; the rest go
// through the tier's operator product against X^(0) in one pass (columns
// global: their neighbors reach outside S, into the full feature matrix), and
// the members among them are published for the next request.
func (t *tier[T]) propagateHop1(rows []int, sc *inferScratch[T]) int {
	m := &t.memo
	adj, f, out := t.d.Adj, sc.f, sc.hop(1)
	sc.missRows = growScratch(sc.missRows, len(rows))[:0]
	sc.missOut = growScratch(sc.missOut, len(rows))[:0]
	sc.hits = growScratch(sc.hits, 2*len(rows))[:0]
	sc.fill = growScratch(sc.fill, 2*len(rows))[:0]
	hitNNZ, slot := 0, 0
	for k, v := range rows {
		var member bool
		if slot, member = m.find(v, slot); member {
			if m.state[slot].Load() == slotReady {
				sc.hits = append(sc.hits, slot, k)
				hitNNZ += adj.RowNNZ(v)
				continue
			}
			sc.fill = append(sc.fill, slot, k)
		}
		sc.missRows = append(sc.missRows, v)
		sc.missOut = append(sc.missOut, k)
	}
	hits := sc.hits
	par.For(len(hits)/2, len(hits)/2*f, func(lo, hi int) {
		for i := 2 * lo; i < 2*hi; i += 2 {
			copy(out[hits[i+1]*f:][:f], m.row(hits[i]))
		}
	})
	macs := t.mulRows(t.base, sc.missRows, sc.missOut, nil, f, out)
	for i := 0; i < len(sc.fill); i += 2 {
		k := sc.fill[i+1]
		m.publish(sc.fill[i], out[k*f:][:f])
	}
	m.stats.fromMemo.Add(uint64(len(hits) / 2))
	m.stats.computed.Add(uint64(len(sc.missRows)))
	return macs + hitNNZ*f
}

// layered reports whether this tier's batches read X^(1) from the memo's block
// in place instead of propagating hop 1 into their slab: the memo is complete,
// so the block is the whole layer, and the tier is a float one — the int8
// tier's hop-2 activation scale is taken over the hop-1 rows of exactly the
// batch's radius-(TMax−1) ball, which therefore has to be gathered. Both are
// state the engine holds, and deltas keep a complete memo complete while the
// budget pays for the appended rows, so which way a batch goes follows from the
// graph and the tier, never from a setting.
func (t *tier[T]) layered() bool { return !t.int8() && t.memo.complete() }

// ensureLayer is hop 1 of a layered batch: it makes X^(1) resident for every
// node of the given lists — together the batch's radius-(TMax−1) ball, each
// node once — and returns Algorithm 1's MAC count for the hop, every row's
// nnz × f whoever computed it. Rows that are not ready are claimed (the slot's
// CAS) as the walk meets them, computed against X^(0) straight into the block
// in one operator product and published; a row another batch claimed first is
// waited for, after this batch has published its own, so two batches that each
// hold rows the other needs cannot wait on each other. On return every listed
// row is ready and stays so until the next delta: publish before read.
func (t *tier[T]) ensureLayer(sc *inferScratch[T], lists ...[]int) int {
	m := &t.memo
	adj := t.d.Adj
	nnz, total := 0, 0
	won, lost := sc.missRows[:0], sc.missOut[:0]
	for _, list := range lists {
		total += len(list)
		for _, v := range list {
			nnz += adj.RowNNZ(v)
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
		t.mulRows(t.base, won, won, nil, sc.f, m.block)
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
	sc.missRows = growScratch(won, len(won))
	sc.missOut = growScratch(lost, len(lost))
	return nnz * sc.f
}

// Hop1Stats are the hop-1 memo's counters: hop-1 rows served from the memo
// and computed by the kernel, rows dropped by deltas (or a Refresh) since
// start, rows currently memoized, and the memo's extent — the slots it has
// (Entries/Capacity is its coverage) and the bytes they cost.
type Hop1Stats struct {
	FromMemo, Computed, Invalidated uint64
	Entries, Capacity, Bytes        int
}

// Add accumulates another engine's counters field-wise (a router sums its
// in-process workers).
func (s *Hop1Stats) Add(o Hop1Stats) {
	s.FromMemo += o.FromMemo
	s.Computed += o.Computed
	s.Invalidated += o.Invalidated
	s.Entries += o.Entries
	s.Capacity += o.Capacity
	s.Bytes += o.Bytes
}

// Hop1Stats snapshots the memo's counters; safe at any time.
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
		"Hop-1 supporting rows by source: served from the hop-1 memo, or computed by the SpMM kernel (cumulative).",
		"source")
	rows.WithFunc(func() float64 { return float64(read().FromMemo) }, "memo")
	rows.WithFunc(func() float64 { return float64(read().Computed) }, "computed")
	reg.GaugeFunc("nai_hop1_memo_entries",
		"Rows currently held by the hop-1 memo.",
		func() float64 { return float64(read().Entries) })
	reg.GaugeFunc("nai_hop1_memo_capacity",
		"Slots the hop-1 memo has: rows it could hold (entries / capacity is its coverage).",
		func() float64 { return float64(read().Capacity) })
	reg.GaugeFunc("nai_hop1_memo_bytes",
		"Bytes the hop-1 memo's slots occupy: what the deployment spends where a materialized adjacency would be.",
		func() float64 { return float64(read().Bytes) })
	reg.GaugeFunc("nai_hop1_memo_invalidated_total",
		"Hop-1 memo rows dropped because a delta recomputed their adjacency row (cumulative).",
		func() float64 { return float64(read().Invalidated) })
}
