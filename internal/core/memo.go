package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
)

// hop1Memo is the X^(1) layer: X^(1)_v = (ÂX^(0))_v for every node v, at the
// active tier's slab element type, in one flat block indexed by node id — a
// second matrix of X^(0)'s shape beside it. Hop 1 is a product no request's
// identity enters, so no batch propagates it: a batch makes the rows of its
// radius-(TMax−1) ball resident (tier.ensureLayer), hop 2 gathers from the
// block through the Â operator the way hop 1 would from the feature matrix,
// and exit decisions and classifiers read the targets' depth-1 rows in place.
//
// The memory contract is that block and nothing else: a row per node plus
// 1/64 of headroom for the nodes deltas append — at most
// (n + n/64)·(f·sizeof(T) + 4) bytes — allocated at reset (whenever the
// engine is rebuilt: Refresh, SetPrecision, NewDeploymentWithState) and
// touched only where a request has needed a row. It is not capped by what the
// graph's adjacency would have cost: on a graph with f ≫ d̄ the block is the
// larger of the two, and serving through it still beats recomputing hop 1
// (ARCHITECTURE.md, "The X^(1) layer", has the measurements).
//
// Rows are filled lazily by whichever batch needs them first, into
// publish-once slots — empty → filling (one CAS winner computes the row into
// the block) → ready — so concurrent Infer callers need no lock: a reader that
// sees ready reads a row no one writes any more. The one invariant is publish
// before read: a batch makes every row of its ball ready — computing the empty
// ones itself, waiting for the ones another batch is filling — before its hop
// 2 starts. Slots only go back to empty, and the arrays are only reallocated,
// in invalidate, invalidateAll, grow and reset, which run under the same
// exclusion as every other graph mutation (never concurrently with Infer).
//
// A row is the bits the tier's kernel wrote for it, and it is dropped whenever
// those bits could change: at f64 and f32 when the values of row v of Â move
// (untouched rows are emitted and lowered to the same bits, and features of
// existing nodes never change without a Refresh), at int8 on every patch,
// because a moved per-tensor scale moves every row. So reading the layer is
// bit-identical to computing hop 1, within each tier.
type hop1Memo[T float64 | float32] struct {
	f     int
	state []atomic.Uint32 // per node: slotEmpty, slotFilling or slotReady
	// block holds node v's row at [v·f, (v+1)·f). Its capacity beyond the
	// graph's rows is the headroom: growing by a few nodes does not copy it.
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

// reset drops every row and sizes the layer for an n-node graph of f features.
func (m *hop1Memo[T]) reset(n, f int) {
	m.stats.invalidated.Add(uint64(m.stats.entries.Swap(0)))
	m.f, m.state, m.block = f, nil, nil
	m.grow(n)
}

// grow extends the layer to n nodes; the new rows are empty. Past the
// headroom the arrays move, to n rows and their 1/64. Not concurrent with
// Infer.
func (m *hop1Memo[T]) grow(n int) {
	if room := n + n/64; n > cap(m.state) {
		m.state = append(make([]atomic.Uint32, 0, room), m.state...)
		m.block = append(make([]T, 0, room*m.f), m.block...)
	}
	m.state, m.block = m.state[:n], m.block[:n*m.f]
	m.stats.capacity.Store(int64(n))
	m.stats.bytes.Store(int64(n * (int(unsafe.Sizeof(*new(T)))*m.f + 4)))
}

// drop empties one row. Not concurrent with Infer.
func (m *hop1Memo[T]) drop(v int) {
	if m.state[v].Swap(slotEmpty) != slotEmpty {
		m.stats.entries.Add(-1)
		m.stats.invalidated.Add(1)
	}
}

// invalidate empties the given rows: exactly the rows of Â whose values a
// delta moved.
func (m *hop1Memo[T]) invalidate(dirty []int) {
	for _, v := range dirty {
		m.drop(v)
	}
}

// invalidateAll empties every row.
func (m *hop1Memo[T]) invalidateAll() {
	for v := range m.state {
		m.drop(v)
	}
}

// ensureLayer is hop 1 of a batch: it makes X^(1) resident for every node of
// the given lists — together the batch's radius-(TMax−1) ball, each node once
// — and returns Algorithm 1's MAC count for the hop, every row's nnz × f
// whoever computed it (like MACBreakdown.Stationary charges a cost the cache
// saved). Rows that are not ready are claimed (the slot's CAS) as the walk
// meets them, computed against X^(0) straight into the block in one operator
// product and published; a row another batch claimed first is waited for,
// after this batch has published its own, so two batches that each hold rows
// the other needs cannot wait on each other. On return every listed row is
// ready and stays so until the next delta: publish before read.
func (t *tier[T]) ensureLayer(sc *inferScratch[T], lists ...[]int) int {
	m := &t.memo
	adj := t.d.Adj
	nnz, total := 0, 0
	won, lost := sc.claimed[:0], sc.awaited[:0]
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
	sc.claimed = growScratch(won, len(won))
	sc.awaited = growScratch(lost, len(lost))
	return nnz * sc.f
}

// Hop1Stats are the X^(1) layer's counters: hop-1 rows a batch found resident
// and rows it computed, rows dropped by deltas (or a Refresh) since start, rows
// currently resident, and the layer's extent — a row per node (Entries/Capacity
// is its coverage) and the bytes they cost.
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
		"Hop-1 supporting rows by source: found resident in the X^(1) layer (memo), or computed into it by the SpMM kernel (cumulative).",
		"source")
	rows.WithFunc(func() float64 { return float64(read().FromMemo) }, "memo")
	rows.WithFunc(func() float64 { return float64(read().Computed) }, "computed")
	reg.GaugeFunc("nai_hop1_memo_entries",
		"Rows currently resident in the X^(1) layer.",
		func() float64 { return float64(read().Entries) })
	reg.GaugeFunc("nai_hop1_memo_capacity",
		"Rows the X^(1) layer has room for: one per node (entries / capacity is its coverage).",
		func() float64 { return float64(read().Capacity) })
	reg.GaugeFunc("nai_hop1_memo_bytes",
		"Bytes the X^(1) layer's rows occupy when all are resident: a second matrix of the features' shape at the tier's element type.",
		func() float64 { return float64(read().Bytes) })
	reg.GaugeFunc("nai_hop1_memo_invalidated_total",
		"X^(1) rows dropped because a delta recomputed their adjacency row (cumulative).",
		func() float64 { return float64(read().Invalidated) })
}
