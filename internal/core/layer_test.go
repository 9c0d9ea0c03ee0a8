package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// The layers' contract, on every graph and at every tier: a batch reads hops
// 1..h where the deployment keeps them — hop h+1 gathers from the depth-h
// block, the supporting ball stops h rings short — and answers exactly what
// the seed transcription does, which propagates every hop over the whole
// radius-(TMax−1) ball. The K = 3 model's operating points read X^(1); the
// K = 5 model's at TMax 4 and 5 read X^(2) and X^(3), with targets exiting
// below, at and above the layer's depth.

// tierOf returns dep's engine at its element type.
func tierOf[T float64 | float32](t *testing.T, dep *Deployment) *tier[T] {
	t.Helper()
	e, ok := dep.eng.(*tier[T])
	if !ok {
		t.Fatalf("engine is %T", dep.eng)
	}
	return e
}

// layersOf returns the layers of every node dep's engine holds, by depth.
func layersOf[T float64 | float32](t *testing.T, dep *Deployment) map[int]*hopLayer[T] {
	t.Helper()
	return held(tierOf[T](t, dep).layers)
}

// hubLayersOf returns the hub layers dep's engine holds, by depth.
func hubLayersOf[T float64 | float32](t *testing.T, dep *Deployment) map[int]*hopLayer[T] {
	t.Helper()
	return held(tierOf[T](t, dep).hubs)
}

func held[T float64 | float32](layers []atomic.Pointer[hopLayer[T]]) map[int]*hopLayer[T] {
	out := map[int]*hopLayer[T]{}
	for h := range layers {
		if m := layers[h].Load(); m != nil {
			out[h] = m
		}
	}
	return out
}

// hubCounts returns the rows dep's hub layers have room for and the rows
// resident in them, whatever the tier.
func hubCounts(dep *Deployment) (capacity, resident int) {
	switch e := dep.eng.(type) {
	case *tier[float64]:
		return hubCountsOf(held(e.hubs))
	case *tier[float32]:
		return hubCountsOf(held(e.hubs))
	}
	return 0, 0
}

func hubCountsOf[T float64 | float32](hubs map[int]*hopLayer[T]) (capacity, resident int) {
	for _, m := range hubs {
		capacity += m.rows
		for k := 0; k < m.rows; k++ {
			if m.isReady(k) {
				resident++
			}
		}
	}
	return capacity, resident
}

// hubsOf returns the nodes hub layer m holds rows for, ascending: row k is
// the k-th's.
func hubsOf[T float64 | float32](m *hopLayer[T]) []int {
	var hubs []int
	for v, k := range m.slot {
		if k >= 0 {
			if int(k) != len(hubs) {
				panic(fmt.Sprintf("hub %d at row %d, after %d hubs", v, k, len(hubs)))
			}
			hubs = append(hubs, v)
		}
	}
	return hubs
}

// layerModel is a test model with the range of TMax it covers.
type layerModel struct {
	m          *Model
	tmin, tmax int
}

// layerModels are the K = 3 model at every TMax (h = 1) and the K = 5 model at
// TMax 4 and 5 (h = 2, 3).
func layerModels(t *testing.T) []layerModel {
	return []layerModel{{trainedModel(t), 1, 3}, {trainedDeepModel(t), 4, 5}}
}

func TestLayerDifferential(t *testing.T) {
	eachTier(t, testLayerDifferential[float64], testLayerDifferential[float32])
}

func testLayerDifferential[T float64 | float32](t *testing.T, p kernel.Precision) {
	for _, lm := range layerModels(t) {
		m := lm.m
		var opts []InferenceOptions
		for _, mode := range []Mode{ModeFixed, ModeDistance, ModeGate} {
			for tmax := lm.tmin; tmax <= lm.tmax; tmax++ {
				opts = append(opts,
					InferenceOptions{Mode: mode, Ts: 0.8, TMin: 1, TMax: tmax},
					InferenceOptions{Mode: mode, Ts: 0.8, TMin: min(2, tmax), TMax: tmax, BatchSize: 7})
			}
		}

		// The sparse graph's block outweighs its adjacency, the dense one's does not.
		for name, ds := range map[string]*synth.Dataset{"sparse": tinyData(t), "dense": denseData(t)} {
			name = fmt.Sprintf("K=%d/%s", m.K, name)
			base, delta := carveDelta(t, ds, 12)
			dep := deployAt(t, m, base, p)
			targets := append([]int(nil), ds.Split.Test[:24]...)
			for i, v := range targets {
				targets[i] = v % base.N()
			}
			targets = append(targets, targets[3], targets[0]) // duplicates, unsorted
			check := func(stage string, targets []int) {
				t.Helper()
				for _, opt := range opts {
					label := fmt.Sprintf("%s/%s/%v/tmin=%d/tmax=%d/batch=%d", name, stage, opt.Mode, opt.TMin, opt.TMax, opt.BatchSize)
					got, err := dep.Infer(targets, opt)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, label, got, seedInfer(dep, targets, opt))
				}
			}

			// Cold for every option, then warm from those runs.
			for _, opt := range opts {
				recold(dep)
				got, err := dep.Infer(targets, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("%s/cold/%v/tmin=%d/tmax=%d/batch=%d", name, opt.Mode, opt.TMin, opt.TMax, opt.BatchSize),
					got, seedInfer(dep, targets, opt))
			}
			check("warm", targets)

			// A delta between two existing nodes drops their rows and, in a
			// depth-h layer, every row within h−1 hops of their neighbors:
			// among them rows two hops out of target 0,
			// which every layer's reads of it only read, and which its next
			// batch must find empty and recompute.
			one := targets[:1]
			ball, ends, _ := graph.Levels(base.Adj, one, 2, graph.NewBitset(base.N()), nil, nil, nil)
			u, v := ball[ends[1]], -1 // the first node of ring 2
			for c := base.N() - 1; c >= 0 && v < 0; c-- {
				if c != u && base.Adj.At(u, c) == 0 {
					v = c
				}
			}
			if _, err := dep.ApplyDelta(graph.Delta{Src: []int{u}, Dst: []int{v}}); err != nil {
				t.Fatal(err)
			}
			layers := layersOf[T](t, dep)
			for h, lay := range layers {
				if lay.isReady(u) {
					t.Fatalf("%s: the delta left ring row %d of target %d resident at depth %d", name, u, one[0], h)
				}
			}
			before := dep.Hop1Stats().Computed
			check("after dropped ring rows", one)
			for h, lay := range layers {
				if !lay.isReady(u) || dep.Hop1Stats().Computed == before {
					t.Fatalf("%s: ring row %d was not recomputed at depth %d by the batch that read it", name, u, h)
				}
			}
			check("after dropped rows", targets)

			// Appended nodes: their rows land in the same blocks, and reads of
			// the newcomers and through them agree — with the seed, and with
			// a deployment built fresh on the merged graph.
			if _, err := dep.ApplyDelta(delta.Clone()); err != nil {
				t.Fatal(err)
			}
			n := dep.Graph.N()
			for h, lay := range layersOf[T](t, dep) {
				if len(lay.block) != n*base.F() || lay.rows != n {
					t.Fatalf("%s: after 12 appended nodes the depth-%d block holds %d rows for %d nodes", name, h, len(lay.block)/base.F(), n)
				}
			}
			targets = append(rangeInts(n-12, n), targets...)
			check("after appended nodes", targets)
			fresh := deployAt(t, m, dep.Graph.Clone(), p)
			for _, opt := range opts {
				want, err := fresh.Infer(targets, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := dep.Infer(targets, opt)
				requireSameResult(t, fmt.Sprintf("%s/fresh deployment/%v/tmax=%d/batch=%d", name, opt.Mode, opt.TMax, opt.BatchSize), got, want)
			}
		}
	}
}

// TestLayerOneBFSPerWave: a batch runs a BFS only for a hop l with
// h < l < TMax — before it if it does not decide, after its wave if it does
// and leaves survivors — so at most one, as h = max(1, TMax−2) leaves one hop
// there. A TMax-4 batch whose targets all reach TMax (TMin 2, T_s 0) records
// one bfs span, after hop 3's wave, and leaves Result.MACs zero: Books of its
// depths equal the seed's ledger. With waves at every depth below TMax, the
// waves at h and below run none, and the one bfs span follows the wave of the
// hop past h and precedes that hop's second propagate span: a hop there that
// decides propagates twice, its active targets' rows before the wave, the
// rest of its survivors' ball after it. At TMax 5 (h = 3) two hops lie past
// the layer. When every target exits by h, no bfs span is recorded. Below h,
// a hop whose rows nothing reads — hop 1 of the SGC model at TMin 2 — records
// no propagate span.
func TestLayerOneBFSPerWave(t *testing.T) {
	ds := tinyData(t)
	m := trainedDeepModel(t)
	o := obs.New(obs.Options{})
	for _, p := range tiers {
		t.Run(p.String(), func(t *testing.T) {
			dep := deployAt(t, m, ds.Graph, p)
			// check runs opt and returns the exits per depth after checking
			// the spans against them.
			check := func(opt InferenceOptions) []int {
				t.Helper()
				label := fmt.Sprintf("%v/tmin=%d/tmax=%d/ts=%g", p, opt.TMin, opt.TMax, opt.Ts)
				tr := o.StartTrace()
				res, err := dep.InferContext(obs.ContextWithTrace(context.Background(), tr), ds.Split.Test, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, label, booked(t, dep, ds.Split.Test, opt, res), seedInfer(dep, ds.Split.Test, opt))
				d, h := res.NodesPerDepth, layerDepth(opt.TMax)
				left := make([]int, opt.TMax+1) // left[l]: targets still active after depth l's wave
				for l := opt.TMax - 1; l >= 0; l-- {
					left[l] = left[l+1] + d[l+1]
				}
				// The one BFS the rule asks for, if hop TMax−1 lies past h, is
				// reached and either does not decide or leaves survivors.
				want := 0
				if l := opt.TMax - 1; h < l && left[l-1] > 0 && (!opt.decides(l) || left[l] > 0) {
					want = 1
				}

				spans := tr.Spans()
				bfs := 0
				props := make([]int, opt.TMax+1)
				for i, sp := range spans {
					switch sp.Stage {
					case obs.StagePropagate:
						props[sp.Hop]++
					case obs.StageBFS:
						bfs++
						next := spans[i+1]
						l := int(next.Hop)
						if next.Stage != obs.StagePropagate || l <= h || l >= opt.TMax {
							t.Fatalf("%s: bfs span %d opens %v %d, not a hop between h = %d and TMax", label, bfs, next.Stage, l, h)
						}
						if prev := spans[i-1].Stage; opt.decides(l) && (props[l] != 1 || prev != obs.StageDecide && prev != obs.StageClassify) {
							t.Fatalf("%s: the bfs before hop %d's second propagate span follows a %v span and %d of its propagate spans, not its wave", label, l, prev, props[l])
						}
					}
				}
				if bfs != want {
					t.Fatalf("%s: %d bfs spans for exits per depth %v, want %d", label, bfs, d, want)
				}
				for l := 1; l <= opt.TMax; l++ {
					want := 1
					switch {
					case left[l-1] == 0:
						want = 0 // every target exited before l
					case l < h && l < opt.TMin && m.Combiner.LowestDepth(opt.TMin) > l:
						want = 0 // an SGC model reads no row below TMin
					case h < l && l < opt.TMax && l >= opt.TMin && left[l] > 0:
						want = 2
					}
					if props[l] != want {
						t.Fatalf("%s: %d propagate spans at hop %d (h = %d), want %d", label, props[l], l, h, want)
					}
				}
				return d
			}

			if d := check(InferenceOptions{Mode: ModeDistance, Ts: 0, TMin: 2, TMax: 4}); d[4] != len(ds.Split.Test) {
				t.Fatalf("T_s 0: exits per depth %v, want none before TMax", d)
			}
			ts := tsQuantile(t, dep, ds.Split.Val, 1, 0.5)
			for _, tmax := range []int{4, 5} {
				d := check(InferenceOptions{Mode: ModeDistance, Ts: ts, TMin: 1, TMax: tmax})
				if slices.Contains(d[1:tmax+1], 0) {
					t.Fatalf("TMax %d: exits per depth %v, want a wave at every depth below TMax and survivors to it", tmax, d)
				}
			}
			if d := check(InferenceOptions{Mode: ModeDistance, Ts: 1e100, TMin: 2, TMax: 4}); d[2] != len(ds.Split.Test) {
				t.Fatalf("T_s above every distance: exits per depth %v, want all at h = 2", d)
			}
		})
	}
}

// TestLayerSkipsUnreadRows: below the layer's depth a batch computes its
// targets' depth-l rows only where a decision at l or an exit depth's combiner
// reads them, and charges the hop either way. At TMin 2, TMax 4 and 5 (h = 2
// and 3), in every mode and at every tier, cold and warm, the K = 5 SGC model
// answers and charges what the seed transcription does and records no hop-1
// propagate span, and a hop-2 span at TMax 5 only where depth 2 decides (not
// in fixed mode). A K = 5 SIGN model, whose classifiers read every depth,
// records one propagate span at every hop below h and matches the seed too.
func TestLayerSkipsUnreadRows(t *testing.T) {
	ds := tinyData(t)
	o := obs.New(obs.Options{})
	for _, m := range []*Model{trainedDeepModel(t), trainedDeepSign(t)} {
		for _, p := range tiers {
			dep := deployAt(t, m, ds.Graph, p)
			ts := tsQuantile(t, dep, ds.Split.Val, 2, 0.5)
			for _, mode := range []Mode{ModeFixed, ModeDistance, ModeGate} {
				for tmax := 4; tmax <= 5; tmax++ {
					opt := InferenceOptions{Mode: mode, Ts: ts, TMin: 2, TMax: tmax}
					want := seedInfer(dep, ds.Split.Test, opt)
					for _, pass := range []string{"cold", "warm"} {
						label := fmt.Sprintf("%s/%v/%v/tmax=%d/%s", m.Combiner.Name(), p, mode, tmax, pass)
						tr := o.StartTrace()
						got, err := dep.InferContext(obs.ContextWithTrace(context.Background(), tr), ds.Split.Test, opt)
						if err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, label, booked(t, dep, ds.Split.Test, opt, got), want)
						props := make([]int, tmax+1)
						for _, sp := range tr.Spans() {
							if sp.Stage == obs.StagePropagate {
								props[sp.Hop]++
							}
						}
						for l := 1; l < layerDepth(tmax); l++ {
							read := m.Combiner.Name() == "sign" || (l >= opt.TMin && mode != ModeFixed)
							if (props[l] > 0) != read || props[l] > 1 {
								t.Fatalf("%s: %d propagate spans at hop %d, want one iff its rows are read (%v)", label, props[l], l, read)
							}
						}
					}
					recold(dep)
				}
			}
		}
	}
}

// TestLayerDemandRows: a batch keeps hop l's rows in its level l, by node id,
// and computes only the rows something reads. After one batch at TMax 4 and 5
// (h = 2 and 3), TMin l = TMax−1 and h, with waves at TMin, at l and survivors
// to TMax, level l holds exactly the targets active at l — its wave reads them
// — and its survivors' radius-(TMax−l) ball, which hop TMax gathers: rows it
// computed, and hub rows it reads in place in the hub layer (l = h+1), which
// the second batch at each TMax finds ready. Each, read through the level or
// the hub block, is bit-equal to X^(l) computed hop by hop; not the rest of
// the targets' one-ring ball, while Books still charges that whole ball
// (Algorithm 1's books). No level holds rows at h, where the layer is the store. The batch's
// one BFS is its survivors' after the wave at l, radius TMax−l: it ran none at
// radius ≥ TMax−h, so none at a depth ≤ h.
func TestLayerDemandRows(t *testing.T) {
	eachTier(t, testLayerDemandRows[float64], testLayerDemandRows[float32])
}

func testLayerDemandRows[T float64 | float32](t *testing.T, p kernel.Precision) {
	ds := tinyData(t)
	m := trainedDeepModel(t)
	dep := deployAt(t, m, ds.Graph, p)
	eng := tierOf[T](t, dep)
	g, f := dep.Graph, dep.Graph.F()
	o := obs.New(obs.Options{})
	targets := ds.Split.Test
	refs := 0
	for _, tmax := range []int{4, 5} {
		l, h := tmax-1, layerDepth(tmax)
		for _, tmin := range []int{l, h} {
			label := fmt.Sprintf("%v/tmin=%d/tmax=%d", p, tmin, tmax)
			opt := InferenceOptions{Mode: ModeDistance, Ts: tsQuantile(t, dep, ds.Split.Val, l, 0.5), TMin: tmin, TMax: tmax}
			want := seedInfer(dep, targets, opt)
			// activeAt(j) is the targets hop j propagates for: those exiting at j or later.
			activeAt := func(j int) []int {
				var out []int
				for i, v := range targets {
					if want.Depths[i] >= j {
						out = append(out, v)
					}
				}
				return out
			}
			if d := want.NodesPerDepth; d[tmin] == 0 || d[l] == 0 || d[tmax] == 0 {
				t.Fatalf("%s: exits per depth %v, want waves at %d and %d and survivors to TMax", label, d, tmin, l)
			}
			whole := graph.Ball(g.Adj, activeAt(l), tmax-l) // what hop l computed before the demand order
			written := sortedUnique(append(activeAt(l), graph.Ball(g.Adj, activeAt(tmax), tmax-l)...), nil)
			if len(written) == len(whole) {
				t.Fatalf("%s: the survivors' ball covers the active targets' one-ring ball; nothing to skip", label)
			}

			sc := &inferScratch[T]{}
			sc.prepare(g.N(), len(targets))
			tr := o.StartTrace()
			got := booked(t, dep, targets, opt, eng.inferBatch(targets, opt, sc, tr))
			requireSameResult(t, label, got, want)
			books := 0
			for j := 1; j <= tmax; j++ {
				books += dep.Adj.NNZRows(graph.Ball(g.Adj, activeAt(j), tmax-j))
			}
			if got.MACs.Propagation != books*f {
				t.Fatalf("%s: propagation MACs %d, the books charge %d", label, got.MACs.Propagation, books*f)
			}

			lv := &sc.levels[l]
			if held := sortedUnique(slices.Concat(lv.nodes, lv.refs), nil); !slices.Equal(held, written) || len(held) != len(lv.nodes)+len(lv.refs) {
				t.Fatalf("%s: level %d holds %d rows and reads %d in place, want the %d the batch read (%d before the demand order)", label, l, len(lv.nodes), len(lv.refs), len(written), len(whole))
			}
			hub := eng.hubs[l].Load()
			if len(lv.refs) > 0 && (hub == nil || &lv.hub[0] != &hub.block[0]) {
				t.Fatalf("%s: level %d reads %d rows in place outside the hub layer of X^(%d)", label, l, len(lv.refs), l)
			}
			ref, refMap := (&hopScratch[T]{}).below(dep.Adj, eng.base, written, l+1, f)
			for _, v := range written {
				k, r := int(lv.idx[v]), int(refMap[v])
				var row []T
				switch {
				case k >= 0 && lv.nodes[k] == v:
					row = lv.x[k*f : (k+1)*f]
				case k <= -2 && slices.Contains(lv.refs, v) && hub.isReady(-2-k) && hub.slotOf(v) == -2-k:
					row = hub.block[(-2-k)*f : (-1-k)*f]
				}
				if row == nil || !slices.Equal(row, ref.x[r*f:(r+1)*f]) {
					t.Fatalf("%s: level %d's row of node %d (slot %d) is not X^(%d)'s", label, l, v, k, l)
				}
			}
			if len(sc.levels[h].nodes) != 0 {
				t.Fatalf("%s: level %d holds %d rows; the layer is the store at h", label, h, len(sc.levels[h].nodes))
			}
			bfs := 0
			for _, sp := range tr.Spans() {
				if sp.Stage == obs.StageBFS {
					bfs++
				}
			}
			if r := len(sc.bfs.ends) - 1; bfs != 1 || r != tmax-l {
				t.Fatalf("%s: %d BFSes, the last to radius %d; want one, the survivors' at l, to radius TMax−l = %d < TMax−h", label, bfs, r, tmax-l)
			}
			refs += len(lv.refs)
		}
	}
	if refs == 0 {
		t.Fatal("no batch read a hub row in place")
	}
}

// TestLayerResidentRowsAreGathered: hop h+1 makes resident only the rows of
// X^(h) it gathers. After one cold batch at TMax 3, 4 and 5, at every tier, the
// layer's resident rows are exactly the targets active at h, whose rows decide
// and classify read there, and the columns of Â in the rows hop h+1 computed:
// its active targets', then its survivors' radius-(TMax−h−1) ball. With exits
// at h and h+1 that is strictly less than the targets' radius-(TMax−h) ball,
// which the batch no longer BFSes to. Each of those rows counts once in
// Hop1Stats, as computed: the batch found none resident.
func TestLayerResidentRowsAreGathered(t *testing.T) {
	eachTier(t, testLayerResidentRowsAreGathered[float64], testLayerResidentRowsAreGathered[float32])
}

func testLayerResidentRowsAreGathered[T float64 | float32](t *testing.T, p kernel.Precision) {
	ds := tinyData(t)
	m := trainedDeepModel(t)
	targets := ds.Split.Test
	for _, tmax := range []int{3, 4, 5} {
		h := layerDepth(tmax)
		dep := deployAt(t, m, ds.Graph, p)
		g := dep.Graph
		label := fmt.Sprintf("%v/tmax=%d", p, tmax)
		opt := InferenceOptions{Mode: ModeDistance, Ts: tsQuantile(t, dep, ds.Split.Val, h, 0.5), TMin: 1, TMax: tmax}
		want := seedInfer(dep, targets, opt)
		if d := want.NodesPerDepth; d[h] == 0 || d[h+1] == 0 || d[tmax] == 0 {
			t.Fatalf("%s: exits per depth %v, want waves at %d and %d and survivors to TMax", label, d, h, h+1)
		}
		got, err := dep.InferContext(context.Background(), targets, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, label, booked(t, dep, targets, opt, got), want)

		activeAt := func(j int) []int {
			var out []int
			for i, v := range targets {
				if want.Depths[i] >= j {
					out = append(out, v)
				}
			}
			return out
		}
		computed := append(activeAt(h+1), graph.Ball(g.Adj, activeAt(h+2), tmax-h-1)...)
		gathered := sortedUnique(append(activeAt(h), graph.Ball(g.Adj, computed, 1)...), nil)
		lay := layersOf[T](t, dep)[h]
		var resident []int
		for v := 0; v < lay.rows; v++ {
			if lay.isReady(v) {
				resident = append(resident, v)
			}
		}
		if !slices.Equal(resident, gathered) {
			t.Fatalf("%s: %d rows of X^(%d) resident, want the %d the batch read", label, len(resident), h, len(gathered))
		}
		ball := graph.Ball(g.Adj, targets, tmax-h)
		if len(gathered) >= len(ball) || len(subtractSorted(nil, gathered, ball)) != 0 {
			t.Fatalf("%s: the batch read %d rows of X^(%d), not a strict subset of the targets' radius-%d ball (%d rows)", label, len(gathered), h, tmax-h, len(ball))
		}
		_, hubs := hubCounts(dep)
		if s := dep.Hop1Stats(); s.FromMemo != 0 || int(s.Computed) != len(gathered)+hubs {
			t.Fatalf("%s: counters read %d rows resident and %d computed, want none and %d layer rows plus %d hub rows", label, s.FromMemo, s.Computed, len(gathered), hubs)
		}
	}
}

// TestLayerHubRows: at every tier, whenever h+1 < TMax (TMax 3, 4 and 5 on
// the K = 5 model: hub rows of X^(2), X^(3) and X^(4)), hop h+1 keeps the
// hubs' rows. The members are the hubCount(n) = ⌈n/8⌉ nodes of highest degree, ties broken
// toward the lower id. After one batch the resident hub rows are exactly the
// hubs among the rows its hop h+1 computed — its active targets, then its
// survivors' radius-(TMax−h−1) ball — and a repeat batch computes none of
// them: it reads each where it lies, its level h+1 holding no ready hub's row.
// A resident hub row is read, not recomputed or copied: poisoned with NaN in
// the hub layer's block, it keeps its hub, a lone target, from exiting at h+1
// under a threshold any finite distance meets, and it reaches the hub's row
// of X^(h+2), which gathers it. A delta empties every hub row, and the next batches
// equal the seed's. A cold batch, whose products fill the rows of X^(h) they
// gather between listing hub rows and publishing them, leaves resident exactly
// the hub rows it computed. TMax ≤ 2 allocates no hub layer.
func TestLayerHubRows(t *testing.T) {
	eachTier(t, testLayerHubRows[float64], testLayerHubRows[float32])
	t.Run("none", func(t *testing.T) {
		ds := tinyData(t)
		m := trainedDeepModel(t)
		for _, p := range tiers {
			dep := deployAt(t, m, ds.Graph, p)
			for _, tmax := range []int{1, 2} {
				opt := InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: tmax}
				requireColdWarmSame(t, fmt.Sprintf("%v/tmax=%d", p, tmax), dep, ds.Split.Test, opt)
			}
			if hubs, _ := hubCounts(dep); hubs != 0 {
				t.Fatalf("%v read at TMax 1 and 2: %d hub rows allocated", p, hubs)
			}
		}
	})
}

func testLayerHubRows[T float64 | float32](t *testing.T, p kernel.Precision) {
	// tinyData's graph at four times the nodes, 75 hubs: hop h+1 of a few test
	// nodes and the highest-degree node computes some hub rows, not all.
	cfg := synth.Tiny(11)
	cfg.N *= 4
	ds, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := trainedDeepModel(t)
	targets := append(slices.Clone(ds.Split.Test[:16]), topDegree(ds.Graph.Adj, 1)...)
	for _, tmax := range []int{3, 4, 5} {
		dep := deployAt(t, m, ds.Graph.Clone(), p)
		eng := tierOf[T](t, dep)
		g, f := dep.Graph, dep.Graph.F()
		l := layerDepth(tmax) + 1 // the hop that reads hub rows
		label := fmt.Sprintf("%v/tmax=%d", p, tmax)
		opt := InferenceOptions{Mode: ModeDistance, Ts: tsQuantile(t, dep, ds.Split.Val, l, 0.5), TMin: l, TMax: tmax}
		want := seedInfer(dep, targets, opt)
		if d := want.NodesPerDepth; d[l] == 0 || d[tmax] == 0 {
			t.Fatalf("%s: exits per depth %v, want a wave at %d and survivors to TMax", label, d, l)
		}
		got, err := dep.Infer(targets, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, label+"/first", got, want)
		hub := eng.hubs[l].Load()
		if hub == nil {
			t.Fatalf("%s: no hub layer at depth %d; hub layers at %v", label, l, depths(hubLayersOf[T](t, dep)))
		}
		members := hubsOf(hub)
		if top := topDegree(g.Adj, hubCount(g.N())); !slices.Equal(members, top) {
			t.Fatalf("%s: hub members %v, the highest-degree nodes %v", label, members, top)
		}

		// hubsComputed requires the resident hub rows to be exactly the hubs
		// among the rows hop l computed for the answers want — its active
		// targets, then the survivors' radius-(TMax−l) ball — some and not
		// all of them, and returns those rows and how many hubs they hold.
		hubsComputed := func(label string, want *Result) (map[int]bool, int) {
			t.Helper()
			var active, survivors []int
			for i, v := range targets {
				if want.Depths[i] >= l {
					active = append(active, v)
				}
				if want.Depths[i] > l {
					survivors = append(survivors, v)
				}
			}
			computed := map[int]bool{}
			for _, v := range append(active, graph.Ball(g.Adj, survivors, tmax-l)...) {
				computed[v] = true
			}
			resident := 0
			for k, v := range members {
				if ready := hub.isReady(k); ready != computed[v] {
					t.Fatalf("%s: hub %d resident=%v, computed by hop %d=%v", label, v, ready, l, computed[v])
				}
				if computed[v] {
					resident++
				}
			}
			if resident == 0 || resident == len(members) {
				t.Fatalf("%s: hop %d computed %d of %d hub rows, want some and not all", label, l, resident, len(members))
			}
			return computed, resident
		}
		computed, resident := hubsComputed(label+"/first", want)
		before := dep.Hop1Stats()
		sc := &inferScratch[T]{}
		sc.prepare(g.N(), len(targets))
		got = booked(t, dep, targets, opt, eng.inferBatch(targets, opt, sc, nil))
		requireSameResult(t, label+"/repeat", got, want)
		if s := dep.Hop1Stats(); s.Computed != before.Computed || int(s.FromMemo-before.FromMemo) < resident {
			t.Fatalf("%s: the repeat batch computed %d rows and read %d resident, %d hub rows were resident", label, s.Computed-before.Computed, s.FromMemo-before.FromMemo, resident)
		}
		lv := &sc.levels[l]
		if len(lv.refs) != resident || slices.ContainsFunc(lv.nodes, func(v int) bool { return hub.slotOf(v) >= 0 }) {
			t.Fatalf("%s: the repeat batch's level %d reads %d hub rows in place and holds %d rows, some a hub's; %d hub rows were resident", label, l, len(lv.refs), len(lv.nodes), resident)
		}

		// A lone hub target that every finite distance lets exit at l.
		k := slices.IndexFunc(members, func(v int) bool { return computed[v] })
		lone := members[k : k+1]
		exitAt := InferenceOptions{Mode: ModeDistance, Ts: 1e100, TMin: l, TMax: tmax}
		poison := func() {
			for j := range hub.block[k*f : (k+1)*f] {
				hub.block[k*f+j] = T(math.NaN())
			}
		}
		poison()
		if got, _ := dep.Infer(lone, exitAt); got.Depths[0] != tmax {
			t.Fatalf("%s: hub %d exited at depth %d over its NaN row, want %d: its resident row was not read", label, lone[0], got.Depths[0], tmax)
		}
		// Hop TMax = l+1 gathers the hub's own row of X^(l), Â's diagonal.
		sc.prepare(g.N(), 1)
		eng.inferBatch(lone, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: tmax}, sc, nil)
		if row := sc.levels[tmax].row(lone[0], f); !slices.ContainsFunc(row, func(x T) bool { return math.IsNaN(float64(x)) }) {
			t.Fatalf("%s: hub %d's row of X^(%d) holds no NaN: hop %d did not read its poisoned row of X^(%d) in place", label, lone[0], tmax, tmax, l)
		}

		// Any delta empties every hub row.
		u, v := 0, -1
		for c := g.N() - 1; c >= 0 && v < 0; c-- {
			if c != u && g.Adj.At(u, c) == 0 {
				v = c
			}
		}
		if _, err := dep.ApplyDelta(graph.Delta{Src: []int{u}, Dst: []int{v}}); err != nil {
			t.Fatal(err)
		}
		if _, resident := hubCounts(dep); resident != 0 {
			t.Fatalf("%s: the delta left %d hub rows resident", label, resident)
		}
		requireColdWarmSame(t, label+"/after the delta", dep, targets, opt)

		// A cold batch: each product of hop l lists its hub rows, then fills
		// the rows of X^(l−1) it gathers, then publishes the hub rows — the
		// fills run between hubRows and publishHubs. The resident hub rows are
		// still exactly the ones it computed, and its products filled layer
		// rows beyond the targets'.
		recold(dep)
		before = dep.Hop1Stats()
		want = seedInfer(dep, targets, opt)
		got, _ = dep.Infer(targets, opt)
		requireSameResult(t, label+"/cold", got, want)
		_, resident = hubsComputed(label+"/cold", want)
		if s := dep.Hop1Stats(); int(s.Computed-before.Computed) <= resident+len(targets) || s.FromMemo != before.FromMemo {
			t.Fatalf("%s/cold: the batch computed %d rows and read %d resident, %d of them hub rows", label, s.Computed-before.Computed, s.FromMemo-before.FromMemo, resident)
		}
	}
}

// subtractSorted returns, in dst, the members of a that are not in b, both
// ascending without duplicates.
func subtractSorted(dst, a, b []int) []int {
	dst = dst[:0]
	for _, v := range a {
		for len(b) > 0 && b[0] < v {
			b = b[1:]
		}
		if len(b) == 0 || b[0] != v {
			dst = append(dst, v)
		}
	}
	return dst
}

// topDegree is the k nodes of highest degree, ties broken toward the lower id,
// ascending: hubMembers by a sort.
func topDegree(adj *sparse.CSR, k int) []int {
	nodes := rangeInts(0, adj.Rows)
	slices.SortStableFunc(nodes, func(a, b int) int { return adj.RowNNZ(b) - adj.RowNNZ(a) })
	top := nodes[:min(k, adj.Rows)]
	slices.Sort(top)
	return top
}

// TestHubMembers: hubMembers is topDegree — on random graphs with isolated
// nodes, hubs and many ties, for k from 0 to past n.
func TestHubMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		var src, dst []int
		for e := rng.Intn(3 * n); e > 0; e-- {
			src, dst = append(src, rng.Intn(n)), append(dst, rng.Intn(n))
		}
		for e := rng.Intn(2 * n); e > 0; e-- { // a hub
			src, dst = append(src, 0), append(dst, rng.Intn(n))
		}
		adj := sparse.FromEdges(n, src, dst, true)
		for _, k := range []int{0, 1, (n + 63) / 64, rng.Intn(n + 1), n, n + 5} {
			if got, want := hubMembers(adj, k), topDegree(adj, k); !slices.Equal(got, want) {
				t.Fatalf("trial %d, n %d, k %d: hubMembers %v, want %v", trial, n, k, got, want)
			}
		}
	}
}

// TestLayerInvalidationRadius: a delta to one edge empties exactly the rows of
// X^(2) within one hop of the rows of Â it moved — no fewer (a layer that
// dropped only the moved rows would keep stale neighbors) and no more — and
// every hub row of X^(3), opens every row of X^(2) the reads before it closed,
// and the next read recomputes exactly those.
func TestLayerInvalidationRadius(t *testing.T) {
	eachTier(t, testLayerInvalidationRadius[float64], testLayerInvalidationRadius[float32])
}

func testLayerInvalidationRadius[T float64 | float32](t *testing.T, p kernel.Precision) {
	ds := tinyData(t)
	m := trainedDeepModel(t)
	dep := deployAt(t, m, ds.Graph.Clone(), p)
	g := dep.Graph
	all := rangeInts(0, g.N())
	opt := InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 4} // reads X^(2) of every node's 2-ball
	if _, err := dep.Infer(all, opt); err != nil {
		t.Fatal(err)
	}
	lay, hub := layersOf[T](t, dep)[2], hubLayersOf[T](t, dep)[3]
	if lay == nil || hub == nil {
		t.Fatalf("reading at TMax 4 left layers %v and hub layers %v", depths(layersOf[T](t, dep)), depths(hubLayersOf[T](t, dep)))
	}
	hubs := hub.rows // hop 3 runs over every node: every hub row is resident
	if s := dep.Hop1Stats(); s.Entries != g.N()+hubs {
		t.Fatalf("reading every node at TMax 4 left %d rows resident, want %d of X^(2) and %d hub rows of X^(3)", s.Entries, g.N(), hubs)
	}
	if !slices.ContainsFunc(all, lay.isClosed) {
		t.Fatal("setup: reading every node at TMax 4 closed no row of X^(2)")
	}

	u, v := 0, -1
	for c := g.N() - 1; c >= 0 && v < 0; c-- {
		if c != u && g.Adj.At(u, c) == 0 {
			v = c
		}
	}
	dr, err := dep.ApplyDelta(graph.Delta{Src: []int{u}, Dst: []int{v}})
	if err != nil {
		t.Fatal(err)
	}
	// The rows of Â the delta moved: its endpoints and their neighbors.
	valDirty := graph.Ball(g.Adj, dr.Dirty, 1)
	stale := map[int]bool{}
	for _, w := range graph.Ball(g.Adj, valDirty, 1) {
		stale[w] = true
	}
	if len(stale) == len(valDirty) {
		t.Fatal("setup: the one-hop ball around the moved rows adds no row")
	}
	for w := range all {
		if empty := !lay.isReady(w); empty != stale[w] {
			t.Fatalf("row %d of X^(2): empty=%v, want %v (%d rows within a hop of the %d moved ones)", w, empty, stale[w], len(stale), len(valDirty))
		}
	}
	if _, resident := hubCounts(dep); resident != 0 {
		t.Fatalf("the delta left %d hub rows of X^(3) resident", resident)
	}
	if w := slices.IndexFunc(all, lay.isClosed); w >= 0 {
		t.Fatalf("row %d of X^(2) is still closed after the delta", w)
	}
	before := dep.Hop1Stats()
	if before.Entries != g.N()-len(stale) {
		t.Fatalf("%d rows resident after emptying %d of %d and every hub row", before.Entries, len(stale), g.N())
	}
	requireColdWarmSame(t, "after the delta", dep, all, opt)
	if s := dep.Hop1Stats(); int(s.Computed-before.Computed) != len(stale)+hubs || s.Entries != g.N()+hubs {
		t.Fatalf("the next reads recomputed %d rows, %d and %d hub rows were emptied (stats %+v)", s.Computed-before.Computed, len(stale), hubs, s)
	}
}

// TestLayerClosedRows: a row of a layer is closed once every row its row of Â
// gathers is ready, and a product of hop h+1 over a closed row walks none of
// them. At every tier, at TMax 3, 4 and 5 on the K = 5 model: after a cold
// batch and after a warm one, every row hop h+1 computed is closed; a repeat
// batch walks none of them — a row they gather, its ready bit cleared behind
// the layer's back, is not recomputed — and answers as the seed does; after a
// delta no row is closed, and the next batches equal the seed's on the merged
// graph.
func TestLayerClosedRows(t *testing.T) {
	eachTier(t, testLayerClosedRows[float64], testLayerClosedRows[float32])
}

func testLayerClosedRows[T float64 | float32](t *testing.T, p kernel.Precision) {
	ds := tinyData(t)
	m := trainedDeepModel(t)
	targets := ds.Split.Test
	for _, tmax := range []int{3, 4, 5} {
		h := layerDepth(tmax)
		dep := deployAt(t, m, ds.Graph.Clone(), p)
		eng := tierOf[T](t, dep)
		g := dep.Graph
		label := fmt.Sprintf("%v/tmax=%d", p, tmax)
		opt := InferenceOptions{Mode: ModeDistance, Ts: tsQuantile(t, dep, ds.Split.Val, h+1, 0.5), TMin: 1, TMax: tmax}
		want := seedInfer(dep, targets, opt)
		// batch answers opt on a scratch of its own and returns the rows its
		// hop h+1 computed.
		batch := func(label string) []int {
			t.Helper()
			sc := &inferScratch[T]{}
			sc.prepare(g.N(), len(targets))
			requireSameResult(t, label, booked(t, dep, targets, opt, eng.inferBatch(targets, opt, sc, nil)), want)
			return sortedUnique(sc.levels[h+1].nodes, nil)
		}
		var computed []int
		for _, pass := range []string{"cold", "warm"} {
			rows := batch(label + "/" + pass)
			if pass == "cold" {
				computed = rows
			}
			lay := layersOf[T](t, dep)[h]
			if open := slices.IndexFunc(computed, func(v int) bool { return !lay.isClosed(v) }); len(computed) == 0 || open >= 0 {
				t.Fatalf("%s/%s: of the %d rows hop %d computed, row %d is not closed", label, pass, len(computed), h+1, open)
			}
		}

		// A row a closed row gathers, no target's: the repeat batch reads the
		// targets' rows at h through a walk of their own.
		lay := layersOf[T](t, dep)[h]
		c := -1
		for _, v := range computed {
			for _, u := range slices.Concat(g.Adj.RowIndices(v), []int32{int32(v)}) {
				if c < 0 && !slices.Contains(targets, int(u)) {
					c = int(u)
				}
			}
		}
		if c < 0 {
			t.Fatalf("%s: every row the closed rows gather is a target's", label)
		}
		w, bit := c>>6, uint64(1)<<(uint(c)&63)
		lay.ready[w].Store(lay.ready[w].Load() &^ bit)
		before := dep.Hop1Stats()
		batch(label + "/repeat")
		if s := dep.Hop1Stats(); s.Computed != before.Computed {
			t.Fatalf("%s: the repeat batch computed %d rows: a walk met row %d, which only closed rows gather", label, s.Computed-before.Computed, c)
		}
		lay.ready[w].Store(lay.ready[w].Load() | bit)

		u, v := 0, -1
		for x := g.N() - 1; x >= 0 && v < 0; x-- {
			if x != u && g.Adj.At(u, x) == 0 {
				v = x
			}
		}
		if _, err := dep.ApplyDelta(graph.Delta{Src: []int{u}, Dst: []int{v}}); err != nil {
			t.Fatal(err)
		}
		for w := range lay.closed {
			if bits := lay.closed[w].Load(); bits != 0 {
				t.Fatalf("%s: the delta left rows closed in word %d (%#x)", label, w, bits)
			}
		}
		requireColdWarmSame(t, label+"/after the delta", dep, targets, opt)
	}
}

// TestLayerHeadroomAvoidsCopy: the block has room for the rows deltas append,
// so growing it by a few nodes moves no row.
func TestLayerHeadroomAvoidsCopy(t *testing.T) {
	ds := denseData(t)
	m := trainedModel(t)
	base, delta := carveDelta(t, ds, 3)
	dep := deployAt(t, m, base, kernel.PrecisionF64)
	lay := tierOf[float64](t, dep).layer(1)
	f := base.F()
	if cap(lay.block) < (base.N()+3)*f {
		t.Fatalf("block has room for %d rows of %d", cap(lay.block)/f, base.N()+3)
	}
	first := &lay.block[0]
	if _, err := dep.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if &lay.block[0] != first || len(lay.block) != dep.Graph.N()*f {
		t.Fatalf("appending 3 nodes moved the block (or left it short: %d rows for %d nodes)", len(lay.block)/f, dep.Graph.N())
	}
}

// TestLayerConcurrentColdStart: eight callers start on one cold deployment at
// once (run under -race), so rows one needs are being filled by another —
// publish before read — and, at TMax 3, 4 and 5, they race on the same hub
// rows, which each computes and the first to take the hub layer's lock
// publishes. Every one must see the seed's answer.
func TestLayerConcurrentColdStart(t *testing.T) {
	eachTier(t, testLayerConcurrentColdStart, testLayerConcurrentColdStart)
}

func testLayerConcurrentColdStart(t *testing.T, p kernel.Precision) {
	ds := denseData(t)
	const callers = 8
	for _, lm := range layerModels(t) {
		m := lm.m
		dep := deployAt(t, m, ds.Graph.Clone(), p)
		opts := []InferenceOptions{
			{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: lm.tmax, BatchSize: 16},
			{Mode: ModeGate, TMin: 1, TMax: lm.tmin + 1},
			{Mode: ModeFixed, TMin: 1, TMax: lm.tmin, BatchSize: 3},
			{Mode: ModeDistance, Ts: 0.8, TMin: 2, TMax: lm.tmax},
			{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: lm.tmax - 1, BatchSize: 8},
		}
		for round := 0; round < 2*len(opts); round++ {
			opt := opts[round%len(opts)]
			// Overlapping windows of the test nodes: every caller shares rows
			// with its neighbors and has some of its own.
			windows := make([][]int, callers)
			wants := make([]*Result, callers)
			for c := range windows {
				windows[c] = ds.Split.Test[c*4 : c*4+32]
				wants[c] = seedInfer(dep, windows[c], opt)
			}
			recold(dep)
			results := make([]*Result, callers)
			var wg sync.WaitGroup
			for c := range results {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					res, err := dep.Infer(windows[c], opt)
					if err != nil {
						t.Error(err)
					}
					results[c] = res
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for c, got := range results {
				requireSameResult(t, fmt.Sprintf("K=%d round %d caller %d", m.K, round, c), got, wants[c])
			}
			if s := dep.Hop1Stats(); s.Entries == 0 || s.Entries > s.Capacity {
				t.Fatalf("K=%d round %d: %d entries for %d rows", m.K, round, s.Entries, s.Capacity)
			}
		}
	}
}

// TestLayerWaitsForRowBeingFilled pins publish-before-read under the layer's
// lock: a batch that lists rows it needs as not ready waits for the lock, and
// under it computes only the rows still not ready. The test holds the lock,
// starts a cold read of one target, and once the read waits for the lock
// computes and publishes the read's whole ball itself, then releases it. The
// read must answer as the seed does and fill no layer row, only the hub rows
// hop h+1 < TMax keeps — for X^(1) read at TMax 2 and X^(2) at TMax 4.
func TestLayerWaitsForRowBeingFilled(t *testing.T) {
	ds := denseData(t)
	for _, c := range []struct {
		m    *Model
		tmax int
	}{{trainedModel(t), 2}, {trainedDeepModel(t), 4}} {
		g := ds.Graph.Clone()
		dep := deployAt(t, c.m, g, kernel.PrecisionF64)
		eng := tierOf[float64](t, dep)
		opt := InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: c.tmax}
		h := layerDepth(c.tmax)
		lay := eng.layer(h)
		target := ds.Split.Test[:1]
		want := seedInfer(dep, target, opt)
		ball := graph.Ball(g.Adj, target, c.tmax-h) // the rows a read of target needs

		lay.mu.Lock()
		done := make(chan *Result)
		go func() {
			res, err := dep.Infer(target, opt)
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		waitLocking("ensureLayer") // the read has listed its rows
		in, colMap := (&hopScratch[float64]{}).below(dep.Adj, eng.base, ball, h, g.F())
		mulRows(dep.Adj, in, ball, ball, colMap, g.F(), lay.block)
		lay.publish(ball)
		lay.mu.Unlock()
		requireSameResult(t, fmt.Sprintf("TMax %d after its ball was published", c.tmax), <-done, want)
		_, hubs := hubCounts(dep)
		if s := dep.Hop1Stats(); int(s.Computed) != hubs || s.Entries != len(ball)+hubs {
			t.Fatalf("TMax %d: the read computed %d rows and %d are resident; its ball of %d was published before it took the lock, and %d hub rows are resident", c.tmax, s.Computed, s.Entries, len(ball), hubs)
		}
	}
}

// waitLocking returns once some goroutine is inside fn and taking a
// sync.Mutex, as runtime.Stack prints them.
func waitLocking(fn string) {
	buf := make([]byte, 1<<20)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			if strings.Contains(g, "sync.(*Mutex).Lock") && strings.Contains(g, fn) {
				return
			}
		}
		runtime.Gosched()
	}
}
