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
// memos, concurrent fills and deltas. The production budget is an identity
// that gives the 300-node test graph slots for three quarters of its rows
// (16 B per entry of a 6-neighbor row against 136 B a slot), so these tests
// size the memo through its unexported reset — the test hook; there is no
// option — to hold a quarter of the rows, or none (the memo-less reference).

// tiers is the precision dimension of the memo and scratch suites.
var tiers = []kernel.Precision{kernel.PrecisionF64, kernel.PrecisionF32, kernel.PrecisionInt8}

// setMemoRows re-selects d's memo with room for exactly n rows, and returns
// how many it selected.
func setMemoRows(d *Deployment, n int) int {
	switch e := d.eng.(type) {
	case *tier[float64]:
		return setTierMemoRows(e, n)
	case *tier[float32]:
		return setTierMemoRows(e, n)
	}
	panic("unknown engine")
}

func setTierMemoRows[T float64 | float32](e *tier[T], n int) int {
	f := e.d.Graph.F()
	e.memo.reset(e.d.Adj, f, func(*sparse.Normalized) int { return n * e.memo.slotBytes(f) })
	return len(e.memo.ids)
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
	for i := range mm.block {
		mm.block[i] = poison
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
	eng.mulRows(eng.base, all, all, nil, g.F(), fresh)
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

// TestMemoBudget: the production budget is the identity — a materialized Â's
// bytes minus the factor vectors' — the memo's retained bytes (rows at the
// tier's element size, index and state words) stay within it, every slot it
// pays for is there, and when not every row fits the members are the
// top-degree rows.
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
		full := sparse.NormalizedAdjacency(ds.Graph.Adj, 0.5)
		adj := sparse.NewNormalized(ds.Graph.Adj, 0.5, sparse.LoopedDegrees(ds.Graph.Adj))
		f := ds.Graph.F()
		m := hop1Memo[T]{stats: new(hop1Counters)}
		m.reset(adj, f, memoBudget)
		budget := 8*(len(full.RowPtr)+len(full.Col)+len(full.Val)) - 8*(len(adj.Left)+len(adj.Right))
		if memoBudget(adj) != budget {
			t.Fatalf("n=%d: budget %d B, the identity says %d", n, memoBudget(adj), budget)
		}
		if got := elem*cap(m.block) + 4*cap(m.ids) + 4*cap(m.state); got > budget {
			t.Fatalf("n=%d: memo retains %d B, over its %d B budget", n, got, budget)
		}
		want := min(budget/(elem*f+8), n)
		if len(m.ids) != want || len(m.state) != want || len(m.block) != want*f {
			t.Fatalf("n=%d: %d ids, %d states, %d row elements for %d slots", n, len(m.ids), len(m.state), len(m.block), want)
		}
		if s := m.stats; int(s.capacity.Load()) != want || int(s.bytes.Load()) != want*(elem*f+8) {
			t.Fatalf("n=%d: counters report %d slots, %d B", n, s.capacity.Load(), s.bytes.Load())
		}
		if elem == 8 && want == n || elem == 4 && want != n {
			t.Fatalf("n=%d: %d slots — this fixture is partial at f64 and full at f32", n, want)
		}
		if !sort.SliceIsSorted(m.ids, func(a, b int) bool { return m.ids[a] < m.ids[b] }) {
			t.Fatalf("n=%d: member ids not ascending", n)
		}
		member := make(map[int]bool, len(m.ids))
		minIn := math.MaxInt
		for slot, id := range m.ids {
			member[int(id)] = true
			minIn = min(minIn, adj.RowNNZ(int(id)))
			if got, ok := m.find(int(id), 0); !ok || got != slot || slot < m.dense && int(id) != slot {
				t.Fatalf("n=%d: find(%d) = %d, %v; slot %d, dense prefix %d", n, id, got, ok, slot, m.dense)
			}
		}
		for v, from := 0, 0; v < n; v++ {
			slot, ok := m.find(v, from)
			if ok != member[v] || ok && int(m.ids[slot]) != v || !ok && slot < len(m.ids) && int(m.ids[slot]) < v {
				t.Fatalf("n=%d: walking find(%d, %d) = %d, %v", n, v, from, slot, ok)
			}
			from = slot
			if !member[v] && adj.RowNNZ(v) > minIn {
				t.Fatalf("n=%d: node %d (degree %d) left out, a member has degree %d", n, v, adj.RowNNZ(v), minIn)
			}
		}
	}
}

// TestDeploymentNotLargerThanMaterialised: on every preset, what a deployment
// holds in place of a materialized Â — the two factor vectors and the memo —
// is no larger than that matrix. The memo takes everything the identity
// leaves, and how many rows that covers follows from the graph: nearly all on
// the dense products-like preset, under half — the top-degree ones — on the
// arxiv-like one, where a slot (8·f + 8 B, f = 48) costs three rows of Â.
func TestDeploymentNotLargerThanMaterialised(t *testing.T) {
	for _, tc := range []struct {
		cfg    synth.Config
		lo, hi float64 // coverage: slots / rows
	}{{synth.Tiny(3), 0.5, 0.99}, {synth.ArxivLike(3), 0.1, 0.5}, {synth.ProductsLike(3), 0.9, 1}} {
		ds, err := synth.Generate(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		dep, err := NewDeployment(&Model{K: 2, Gamma: 0.5, NumClasses: g.NumClasses, FeatureDim: g.F()}, g)
		if err != nil {
			t.Fatal(err)
		}
		full := sparse.NormalizedAdjacency(g.Adj, 0.5)
		materialized := 8 * (len(full.RowPtr) + len(full.Col) + len(full.Val))
		stats := dep.Hop1Stats()
		held := 8*(len(dep.Adj.Left)+len(dep.Adj.Right)) + stats.Bytes
		if held > materialized {
			t.Fatalf("%s: factors + memo hold %d B, a materialized Â %d B", tc.cfg.Name, held, materialized)
		}
		slot := 8*g.F() + 8
		if materialized-held >= slot && stats.Capacity < g.N() {
			t.Fatalf("%s: %d B of the identity unspent with %d of %d rows memoizable", tc.cfg.Name, materialized-held, stats.Capacity, g.N())
		}
		if cover := float64(stats.Capacity) / float64(g.N()); cover < tc.lo || cover > tc.hi {
			t.Fatalf("%s: %d slots for %d rows, want coverage in [%v, %v]", tc.cfg.Name, stats.Capacity, g.N(), tc.lo, tc.hi)
		}
		mm := &dep.eng.(*tier[float64]).memo
		member := make(map[int]bool, len(mm.ids))
		minIn := math.MaxInt
		for _, id := range mm.ids {
			member[int(id)] = true
			minIn = min(minIn, dep.Adj.RowNNZ(int(id)))
		}
		for v := 0; v < g.N(); v++ {
			if !member[v] && dep.Adj.RowNNZ(v) > minIn {
				t.Fatalf("%s: node %d (degree %d) left out, a member has degree %d", tc.cfg.Name, v, dep.Adj.RowNNZ(v), minIn)
			}
		}
	}
}

// TestMemoGrowsWithAppendedNodes: on a graph dense enough that every row
// fits, the nodes deltas append — the inductive newcomers, which every ball
// through them would otherwise recompute — get memo slots, so coverage stays
// complete, and answers stay bit-equal to a memo-less deployment cold and
// warm. On a partial memo the budget identity still binds.
func TestMemoGrowsWithAppendedNodes(t *testing.T) {
	m := trainedModel(t)
	cfg := synth.Tiny(11)
	cfg.AvgDegree = 24
	ds, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K, BatchSize: 16}
	for _, p := range tiers {
		base, delta := carveDelta(t, ds, 12)
		dep := deployAt(t, m, base, p)
		bare := deployAt(t, m, base.Clone(), p)
		setMemoRows(bare, 0)
		if s := dep.Hop1Stats(); s.Capacity != base.N() {
			t.Fatalf("%v: %d slots for %d rows: the fixture is not dense enough", p, s.Capacity, base.N())
		}
		for k := 0; k < 12; k++ { // one node per delta, with its edges to earlier nodes
			u := base.N()
			d := graph.Delta{Features: delta.Features.GatherRows([]int{k}), Labels: delta.Labels[k : k+1]}
			for e := range delta.Src {
				if delta.Src[e] == u {
					d.Src, d.Dst = append(d.Src, u), append(d.Dst, delta.Dst[e])
				}
			}
			for _, x := range []*Deployment{dep, bare} {
				if _, err := x.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
			}
			targets := append(rangeInts(u-3, u+1), ds.Split.Test[:8]...)
			requireColdWarmSame(t, fmt.Sprintf("%v after %d deltas", p, k+1), dep, bare, targets, opt)
		}
		n := dep.Graph.N()
		if _, err := dep.Infer(rangeInts(0, n), InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 1}); err != nil {
			t.Fatal(err)
		}
		var ids, dense int
		switch e := dep.eng.(type) {
		case *tier[float64]:
			ids, dense = len(e.memo.ids), e.memo.dense
		case *tier[float32]:
			ids, dense = len(e.memo.ids), e.memo.dense
		}
		if s := dep.Hop1Stats(); ids != n || dense != n || s.Capacity != n || s.Entries != n {
			t.Fatalf("%v: %d ids (%d dense), stats %+v for %d nodes", p, ids, dense, s, n)
		}
		if s := bare.Hop1Stats(); s.Capacity != 0 || s.FromMemo != 0 {
			t.Fatalf("%v: memo-less reference grew a memo: %+v", p, s)
		}
		requireColdWarmSame(t, fmt.Sprintf("%v full", p), dep, bare, ds.Split.Test, opt)
	}

	// Partial: the tiny graph at its own density. Newcomers get what the
	// grown graph's identity adds, which is less than a slot apiece.
	tiny := tinyData(t)
	base, delta := carveDelta(t, tiny, 12)
	dep := deployAt(t, m, base, kernel.PrecisionF64)
	before := dep.Hop1Stats().Capacity
	if _, err := dep.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	after := dep.Hop1Stats()
	limit := memoBudget(dep.Adj) / (8*base.F() + 8)
	if before >= base.N()-12 || after.Capacity < before || after.Capacity > limit || after.Capacity == base.N() {
		t.Fatalf("partial memo went from %d to %d slots; the grown graph's budget allows %d of %d", before, after.Capacity, limit, base.N())
	}
}
