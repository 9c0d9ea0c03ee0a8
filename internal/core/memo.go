package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// hop1Memo keeps X^(1)_v = (ÂX^(0))_v for the highest-degree rows of Â, at
// the active tier's slab element type, so hop 1 stops recomputing them on
// every request. A neighbor is reached with probability ∝ its degree and its
// row costs ∝ its degree, so the few hub rows carry a large share of every
// supporting ball's hop-1 work (on the benchmark fixture 0.6 % of the rows
// carry half of a point request's nnz) and, being in most balls, are
// recomputed by most requests.
//
// Membership is fixed at reset (whenever the engine is rebuilt: Refresh,
// SetPrecision, NewDeploymentWithState): the top-degree rows, as many as
// memoBudget allows. Rows are filled lazily by whichever request computes
// them first, into publish-once slots — empty → filling (one CAS winner
// copies its freshly computed row in) → ready — so concurrent Infer callers
// need no lock: a reader that sees ready reads a row no one writes any more,
// and anything else is treated as a miss and computed as before. Slots only
// go back to empty in invalidate, invalidateAll and reset, which run under
// the same exclusion as every other graph mutation (never concurrently with
// Infer).
//
// A memoized row is the bits the tier's kernel wrote for it, and it is
// dropped whenever those bits could change: at f64 and f32 when row v of Â is
// recomputed (clean rows lower to the same bits, and features of existing
// nodes never change without a Refresh), at int8 on every patch, because
// re-quantizing can move a per-tensor scale and with it every row. So serving
// from the memo is bit-identical to computing, within each tier. A memo with
// no slots is valid: every row is a miss.
type hop1Memo[T float64 | float32] struct {
	f     int
	ids   []int32         // member node ids, ascending
	state []atomic.Uint32 // per slot: slotEmpty, slotFilling or slotReady
	rows  []T             // len(ids)×f, slot-major
	stats *hop1Counters   // the owning deployment's
}

// hop1Counters are scraped by /metrics (Hop1Stats); Result.MACs keeps the
// paper's books and cannot show the saving.
type hop1Counters struct {
	fromMemo, computed, invalidated atomic.Uint64
	entries                         atomic.Int64
}

const (
	slotEmpty uint32 = iota
	slotFilling
	slotReady
)

// memoShare is the memo's fixed budget: 0.5 % of the bytes Â itself holds,
// index and state words included.
const memoShare = 0.005

// memoBudget is the byte budget of a deployment serving adj.
func memoBudget(adj *sparse.CSR) int {
	adjBytes := 8 * (len(adj.RowPtr) + len(adj.Col) + len(adj.Val))
	return int(memoShare * float64(adjBytes))
}

// slotBytes is what one memoized row costs: f elements, its id, its state.
func (m *hop1Memo[T]) slotBytes(f int) int { return int(unsafe.Sizeof(*new(T)))*f + 4 + 4 }

// reset drops every row and re-selects the members for adj: the top-degree
// rows that fit budget bytes (ties at the cut-off degree go to the lowest
// ids), found with one degree histogram — O(n), no sort.
func (m *hop1Memo[T]) reset(adj *sparse.CSR, f, budget int) {
	m.stats.invalidated.Add(uint64(m.stats.entries.Swap(0)))
	slots := min(budget/m.slotBytes(f), adj.Rows)
	m.f = f
	m.ids = make([]int32, 0, slots)
	m.state = make([]atomic.Uint32, slots)
	m.rows = make([]T, slots*f)
	if slots == 0 {
		return
	}
	maxDeg := 0
	for i := 0; i < adj.Rows; i++ {
		maxDeg = max(maxDeg, adj.RowNNZ(i))
	}
	hist := make([]int, maxDeg+1)
	for i := 0; i < adj.Rows; i++ {
		hist[adj.RowNNZ(i)]++
	}
	cut, atCut := maxDeg, slots // rows of degree > cut all fit; atCut more at cut
	for ; cut > 0 && hist[cut] <= atCut; cut-- {
		atCut -= hist[cut]
	}
	for i := 0; i < adj.Rows; i++ {
		if d := adj.RowNNZ(i); d > cut {
			m.ids = append(m.ids, int32(i))
		} else if d == cut && atCut > 0 {
			m.ids = append(m.ids, int32(i))
			atCut--
		}
	}
}

// find returns the first slot at or after from whose id is ≥ v, and whether
// it is v's. Callers walk ascending node lists, so from only moves forward.
func (m *hop1Memo[T]) find(v, from int) (int, bool) {
	lo, hi := from, len(m.ids)
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

func (m *hop1Memo[T]) row(slot int) []T { return m.rows[slot*m.f : (slot+1)*m.f] }

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
// rows of Â a delta recomputed.
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
// Ready memo rows are copied; the rest go through the tier's SpMM kernel in
// one pass, and the members among them are published for the next request.
func (t *tier[T]) propagateHop1(rows []int, sc *inferScratch[T]) int {
	m := &t.memo
	adj, f, out := t.d.Adj, sc.f, sc.hop(1)
	sc.missRows = growScratch(sc.missRows, len(rows))[:0]
	sc.missOut = growScratch(sc.missOut, len(rows))[:0]
	sc.fill = sc.fill[:0] // (slot, compact row) pairs: misses that are members
	hitNNZ, slot := 0, 0
	for k, v := range rows {
		var member bool
		if slot, member = m.find(v, slot); member {
			if m.state[slot].Load() == slotReady {
				copy(out[k*f:][:f], m.row(slot))
				hitNNZ += adj.RowNNZ(v)
				continue
			}
			sc.fill = append(sc.fill, slot, k)
		}
		sc.missRows = append(sc.missRows, v)
		sc.missOut = append(sc.missOut, k)
	}
	macs := t.mulRows(t.base, adj, sc.missRows, sc.missOut, f, out)
	for i := 0; i < len(sc.fill); i += 2 {
		k := sc.fill[i+1]
		m.publish(sc.fill[i], out[k*f:][:f])
	}
	m.stats.fromMemo.Add(uint64(len(rows) - len(sc.missRows)))
	m.stats.computed.Add(uint64(len(sc.missRows)))
	return macs + hitNNZ*f
}

// Hop1Stats are the hop-1 memo's counters: hop-1 rows served from the memo
// and computed by the kernel, rows currently memoized, and rows dropped by
// deltas (or a Refresh) since start.
type Hop1Stats struct {
	FromMemo, Computed, Invalidated uint64
	Entries                         int
}

// Add accumulates another engine's counters field-wise (a router sums its
// in-process workers).
func (s *Hop1Stats) Add(o Hop1Stats) {
	s.FromMemo += o.FromMemo
	s.Computed += o.Computed
	s.Invalidated += o.Invalidated
	s.Entries += o.Entries
}

// Hop1Stats snapshots the memo's counters; safe at any time.
func (d *Deployment) Hop1Stats() Hop1Stats {
	m := &d.memoStats
	return Hop1Stats{
		FromMemo:    m.fromMemo.Load(),
		Computed:    m.computed.Load(),
		Invalidated: m.invalidated.Load(),
		Entries:     int(m.entries.Load()),
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
		"Hub rows currently held by the hop-1 memo.",
		func() float64 { return float64(read().Entries) })
	reg.GaugeFunc("nai_hop1_memo_invalidated_total",
		"Hop-1 memo rows dropped because a delta recomputed their adjacency row (cumulative).",
		func() float64 { return float64(read().Invalidated) })
}
