package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// The hop-1 memo's contract: serving a hub row from the memo changes no
// output bit and no MAC count within a precision tier, under cold and warm
// memos, concurrent fills and deltas. The fixed production budget gives the
// 300-node test graph a single slot, so these tests size the memo through its
// unexported reset — the test hook; there is no option — to hold a quarter of
// the rows, or none (the memo-less reference).

// tiers is the precision dimension of the memo and scratch suites.
var tiers = []kernel.Precision{kernel.PrecisionF64, kernel.PrecisionF32, kernel.PrecisionInt8}

// setMemoRows re-selects d's memo with room for exactly n rows, and returns
// how many it selected.
func setMemoRows(d *Deployment, n int) int {
	switch e := d.eng.(type) {
	case *tier[float64]:
		e.memo.reset(d.Adj, d.Graph.F(), n*e.memo.slotBytes(d.Graph.F()))
		return len(e.memo.ids)
	case *tier[float32]:
		e.memo.reset(d.Adj, d.Graph.F(), n*e.memo.slotBytes(d.Graph.F()))
		return len(e.memo.ids)
	}
	panic("unknown engine")
}

// memoPair deploys m twice over clones of g at tier p: once with a quarter of
// the rows memoizable, once memo-less. slots is the former's size.
func memoPair(t *testing.T, m *Model, g *graph.Graph, p kernel.Precision) (memo, bare *Deployment, slots int) {
	t.Helper()
	memo, bare = deployAt(t, m, g.Clone(), p), deployAt(t, m, g.Clone(), p)
	if slots = setMemoRows(memo, g.N()/4); slots != g.N()/4 || setMemoRows(bare, 0) != 0 {
		t.Fatalf("memo holds %d slots, want %d (and none on the reference)", slots, g.N()/4)
	}
	return memo, bare, slots
}

// requireColdWarmSame runs opt on memo twice — whatever the memo holds, then
// warm from that run — and requires both to match bare bit for bit.
func requireColdWarmSame(t *testing.T, label string, memo, bare *Deployment, targets []int, opt InferenceOptions) {
	t.Helper()
	want, err := bare.Infer(targets, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, pass := range []string{"cold", "warm"} {
		got, err := memo.Infer(targets, opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, pass, err)
		}
		requireSameResult(t, label+"/"+pass, got, want)
	}
}

func TestMemoEquivalence(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	cases := equivCases(m.K)
	for _, batch := range []int{0, 7, 1} {
		cases = append(cases,
			InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: 1, BatchSize: batch},
			InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: 2, BatchSize: batch},
			InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 2, BatchSize: batch},
			InferenceOptions{Mode: ModeGate, TMin: 1, TMax: 1, BatchSize: batch},
		)
	}
	for _, p := range tiers {
		memo, bare, _ := memoPair(t, m, ds.Graph, p)
		for _, opt := range cases {
			for _, frozen := range []bool{false, true} {
				opt.NoSupportRecompute = frozen
				label := fmt.Sprintf("%v/%v/ts=%v/tmin=%d/tmax=%d/batch=%d/frozen=%v",
					p, opt.Mode, opt.Ts, opt.TMin, opt.TMax, opt.BatchSize, frozen)
				setMemoRows(memo, ds.Graph.N()/4) // cold again
				before := memo.Hop1Stats()
				requireColdWarmSame(t, label, memo, bare, ds.Split.Test, opt)
				after := memo.Hop1Stats()
				if after.FromMemo == before.FromMemo || after.Entries == 0 {
					t.Fatalf("%s: the memo served nothing (%+v → %+v)", label, before, after)
				}
			}
		}
		if s := bare.Hop1Stats(); s.FromMemo != 0 || s.Entries != 0 {
			t.Fatalf("%v: memo-less reference used a memo: %+v", p, s)
		}
	}
}

// TestMemoDeltaEquivalence warms the memo on a base graph, then grows the
// graph in stages with inference between them, so every stage invalidates
// rows that were live: answers must keep matching a memo-less deployment
// freshly built on the merged graph. At every tier — this is what checks
// f64's and f32's drop-exactly-the-recomputed-rows rule and int8's
// drop-everything-on-requantize rule.
func TestMemoDeltaEquivalence(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	opts := []InferenceOptions{
		{Mode: ModeFixed, TMin: 1, TMax: m.K, BatchSize: 7},
		{Mode: ModeDistance, Ts: 0.35, TMin: 1, TMax: m.K, BatchSize: 9},
		{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: 2},
		{Mode: ModeFixed, TMin: 1, TMax: 1},
		{Mode: ModeGate, TMin: 1, TMax: m.K, BatchSize: 11},
	}
	for _, p := range tiers {
		for _, stages := range []int{1, 3} {
			base, delta := carveDelta(t, ds, 12)
			memo, bare, _ := memoPair(t, m, base, p)
			baseTargets := make([]int, 0, len(ds.Split.Test))
			for _, v := range ds.Split.Test {
				if v < base.N() {
					baseTargets = append(baseTargets, v)
				}
			}
			per := (len(delta.Src) + stages - 1) / stages
			for s := 0; s < stages; s++ {
				for oi, opt := range opts {
					requireColdWarmSame(t, fmt.Sprintf("%v stages=%d before %d opt%d", p, stages, s, oi),
						memo, bare, baseTargets, opt)
				}
				d := graph.Delta{}
				if s == 0 {
					d.Features, d.Labels = delta.Features, delta.Labels
				}
				if lo, hi := s*per, min((s+1)*per, len(delta.Src)); lo < hi {
					d.Src, d.Dst = delta.Src[lo:hi], delta.Dst[lo:hi]
				}
				for _, dep := range []*Deployment{memo, bare} {
					if _, err := dep.ApplyDelta(d.Clone()); err != nil {
						t.Fatal(err)
					}
				}
			}
			if memo.Hop1Stats().Invalidated == 0 {
				t.Fatalf("%v stages=%d: no live memo row was invalidated", p, stages)
			}
			fresh := deployAt(t, m, ds.Graph.Clone(), p)
			setMemoRows(fresh, 0)
			requireSameState(t, fresh, memo)
			for oi, opt := range opts {
				requireColdWarmSame(t, fmt.Sprintf("%v stages=%d merged opt%d", p, stages, oi),
					memo, fresh, ds.Split.Test, opt)
			}
		}
	}
}

// TestMemoConcurrentFill: eight callers race to fill the same empty slots
// (run under -race), at the f64 and f32 element types; every one must see the
// memo-less answer.
func TestMemoConcurrentFill(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	for _, p := range tiers[:2] {
		memo, bare, slots := memoPair(t, m, ds.Graph, p)
		opt := InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K, BatchSize: 16}
		want, err := bare.Infer(ds.Split.Test, opt)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			setMemoRows(memo, ds.Graph.N()/4)
			results := make([]*Result, 8)
			var wg sync.WaitGroup
			for c := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := memo.Infer(ds.Split.Test, opt)
					if err != nil {
						t.Error(err)
					}
					results[c] = res
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for c, got := range results {
				requireSameResult(t, fmt.Sprintf("%v round %d caller %d", p, round, c), got, want)
			}
			if s := memo.Hop1Stats(); s.Entries == 0 || s.Entries > slots {
				t.Fatalf("%v round %d: %d entries for %d slots", p, round, s.Entries, slots)
			}
		}
	}
}

// TestMemoInvalidation poisons every memoized row, attaches a new node to
// one hub and checks the delta emptied exactly the slots whose bits it could
// have changed — at f64 and f32 the rows Â recomputed, no more (the rest still
// hold the poison, and are served as they are) and no fewer (the refilled rows
// equal a fresh computation); at int8, where the patch re-quantizes under
// scales that may have moved, every slot.
func TestMemoInvalidation(t *testing.T) {
	eachTier(t, testMemoInvalidation[float64], testMemoInvalidation[float32])
}

func testMemoInvalidation[T float64 | float32](t *testing.T, p kernel.Precision) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _, _ := memoPair(t, m, ds.Graph, p)
	g := dep.Graph
	mm := &dep.eng.(*tier[T]).memo
	// TMax 1: hop 1 runs over the targets themselves, so this fills every slot.
	fillAll := func() {
		if _, err := dep.Infer(rangeInts(0, g.N()), InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 1}); err != nil {
			t.Fatal(err)
		}
	}
	fillAll()
	if s := dep.Hop1Stats(); s.Entries != len(mm.ids) {
		t.Fatalf("filled %d of %d slots", s.Entries, len(mm.ids))
	}
	const poison = -12345.0
	for i := range mm.rows {
		mm.rows[i] = poison
	}

	hub := int(mm.ids[len(mm.ids)/2])
	newNode := g.N()
	if _, err := dep.ApplyDelta(graph.Delta{
		Features: mat.New(1, g.F()), Labels: []int{0},
		Src: []int{newNode}, Dst: []int{hub},
	}); err != nil {
		t.Fatal(err)
	}
	// Rows of Â the delta recomputed: the two endpoints (their degrees
	// changed) and everything adjacent to them.
	valDirty := map[int]bool{hub: true, newNode: true}
	for _, u := range g.Adj.RowIndices(hub) {
		valDirty[u] = true
	}
	stale := func(id int32) bool { return p == kernel.PrecisionInt8 || valDirty[int(id)] }
	cleared := 0
	for slot, id := range mm.ids {
		empty := mm.state[slot].Load() == slotEmpty
		if empty != stale(id) {
			t.Fatalf("slot of node %d: empty=%v, want %v", id, empty, stale(id))
		}
		if empty {
			cleared++
		} else if mm.row(slot)[0] != poison {
			t.Fatalf("slot of node %d was rewritten", id)
		}
	}
	if s := dep.Hop1Stats(); cleared == 0 || int(s.Invalidated) != cleared || s.Entries != len(mm.ids)-cleared {
		t.Fatalf("cleared %d slots, stats %+v", cleared, s)
	}

	fillAll()
	eng := dep.eng.(*tier[T])
	all := rangeInts(0, g.N())
	fresh := make([]T, g.N()*g.F())
	eng.mulRows(eng.base, dep.Adj, all, all, g.F(), fresh)
	for slot, id := range mm.ids {
		if mm.state[slot].Load() != slotReady {
			t.Fatalf("slot of node %d not refilled", id)
		}
		for j, v := range mm.row(slot) {
			want := fresh[int(id)*g.F()+j]
			if !stale(id) {
				want = poison
			}
			if math.Float64bits(float64(v)) != math.Float64bits(float64(want)) {
				t.Fatalf("node %d col %d: memo holds %v, want %v", id, j, v, want)
			}
		}
	}

	dep.Refresh()
	if s := dep.Hop1Stats(); s.Entries != 0 {
		t.Fatalf("Refresh kept %d rows", s.Entries)
	}
}

// TestMemoBudget: at the production budget the memo's retained bytes — rows
// at the tier's element size, index and state words — stay within 0.5 % of
// Â's, and the members are the top-degree rows.
func TestMemoBudget(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testMemoBudget[float64](t, 8) })
	t.Run("f32", func(t *testing.T) { testMemoBudget[float32](t, 4) })
}

func testMemoBudget[T float64 | float32](t *testing.T, elem int) {
	for _, n := range []int{300, 20000} {
		cfg := synth.Tiny(5)
		cfg.N = n
		ds, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		adj := sparse.NormalizedAdjacency(ds.Graph.Adj, 0.5)
		f := ds.Graph.F()
		m := hop1Memo[T]{stats: new(hop1Counters)}
		m.reset(adj, f, memoBudget(adj))
		adjBytes := 8 * (len(adj.RowPtr) + len(adj.Col) + len(adj.Val))
		if got := elem*cap(m.rows) + 4*cap(m.ids) + 4*cap(m.state); float64(got) > 0.005*float64(adjBytes) {
			t.Fatalf("n=%d: memo retains %d B, over 0.5%% of Â's %d B", n, got, adjBytes)
		}
		if want := memoBudget(adj) / (elem*f + 8); len(m.ids) != want || len(m.state) != want || len(m.rows) != want*f {
			t.Fatalf("n=%d: %d ids, %d states, %d row elements for %d slots", n, len(m.ids), len(m.state), len(m.rows), want)
		}
		if n > 300 && len(m.ids) < 20 {
			t.Fatalf("n=%d: only %d slots", n, len(m.ids))
		}
		if !sort.SliceIsSorted(m.ids, func(a, b int) bool { return m.ids[a] < m.ids[b] }) {
			t.Fatalf("n=%d: member ids not ascending", n)
		}
		member := make(map[int]bool, len(m.ids))
		minIn := math.MaxInt
		for _, id := range m.ids {
			member[int(id)] = true
			minIn = min(minIn, adj.RowNNZ(int(id)))
		}
		for v := 0; v < adj.Rows; v++ {
			if !member[v] && adj.RowNNZ(v) > minIn {
				t.Fatalf("n=%d: node %d (degree %d) left out, a member has degree %d", n, v, adj.RowNNZ(v), minIn)
			}
		}
	}
}
