package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
		capacity += len(m.members)
		for k := range m.state {
			if m.state[k].Load() == slotReady {
				resident++
			}
		}
	}
	return capacity, resident
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
				if lay.state[u].Load() != slotEmpty {
					t.Fatalf("%s: the delta left ring row %d of target %d resident at depth %d", name, u, one[0], h)
				}
			}
			before := dep.Hop1Stats().Computed
			check("after dropped ring rows", one)
			for h, lay := range layers {
				if lay.state[u].Load() != slotReady || dep.Hop1Stats().Computed == before {
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
				if len(lay.block) != n*base.F() || len(lay.state) != n {
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

// TestLayerOneBFSPerWave: a batch runs one BFS at its start and one after each
// exit wave that leaves survivors, and no other. A TMax-4 batch whose targets
// all reach TMax (TMin 2, T_s 0) records exactly one bfs span — the layer's
// ball at h and S both come from it — and leaves Result.MACs zero: Books of its
// depths equal the seed's ledger. With waves at every
// depth below TMax, each wave's bfs span follows its classify span. Up to h
// the BFS opens the next depth; past h it is the wave's own hop's — hop l's
// remainder propagate span comes next, and no bfs span opens hop l+1 — and
// every hop there that decides propagates twice: its active targets' rows
// before the wave, the rest of the next hop's ball after it. At TMax 5 (h = 3)
// two hops lie past the layer. Below h, a hop whose rows nothing reads — hop 1
// of the SGC model at TMin 2 — records no propagate span.
func TestLayerOneBFSPerWave(t *testing.T) {
	ds := tinyData(t)
	m := trainedDeepModel(t)
	o := obs.New(obs.Options{})
	for _, p := range tiers {
		t.Run(p.String(), func(t *testing.T) {
			dep := deployAt(t, m, ds.Graph, p)
			check := func(opt InferenceOptions, exits bool) {
				t.Helper()
				label := fmt.Sprintf("%v/tmin=%d/tmax=%d", p, opt.TMin, opt.TMax)
				tr := o.StartTrace()
				res, err := dep.InferContext(obs.ContextWithTrace(context.Background(), tr), ds.Split.Test, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, label, booked(t, dep, ds.Split.Test, opt, res), seedInfer(dep, ds.Split.Test, opt))
				d, h := res.NodesPerDepth, layerDepth(opt.TMax)
				left := make([]int, opt.TMax+1) // left[l]: targets still active after depth l's wave
				waves := 0
				for l := opt.TMax - 1; l >= 1; l-- {
					left[l] = left[l+1] + d[l+1]
					if d[l] > 0 && left[l] > 0 {
						waves++
					}
				}
				if exits {
					for l := 1; l < opt.TMax; l++ {
						if d[l] == 0 {
							t.Fatalf("%s: exits per depth %v, want a wave at every depth below TMax", label, d)
						}
					}
					if d[opt.TMax] == 0 {
						t.Fatalf("%s: exits per depth %v, want survivors to TMax", label, d)
					}
				} else if waves > 0 {
					t.Fatalf("%s: exits per depth %v, want none before TMax", label, d)
				}

				spans := tr.Spans()
				bfs, hop := 0, 0 // hop: the last propagate span's
				props := make([]int, opt.TMax+1)
				for i, sp := range spans {
					switch sp.Stage {
					case obs.StagePropagate:
						hop = int(sp.Hop)
						props[hop]++
					case obs.StageBFS:
						if bfs++; bfs == 1 {
							continue
						}
						if spans[i-1].Stage != obs.StageClassify {
							t.Fatalf("%s: bfs span %d follows a %v span, not a wave's classify", label, bfs, spans[i-1].Stage)
						}
						next := spans[i+1]
						switch {
						case hop > h && (next.Stage != obs.StagePropagate || int(next.Hop) != hop):
							t.Fatalf("%s: the bfs after hop %d's wave (past h = %d) is followed by %v %d, not that hop's remainder", label, hop, h, next.Stage, next.Hop)
						case hop <= h && next.Stage == obs.StagePropagate && int(next.Hop) != hop+1:
							t.Fatalf("%s: the bfs after depth %d's wave opens hop %d", label, hop, next.Hop)
						}
					}
				}
				if bfs != 1+waves {
					t.Fatalf("%s: %d bfs spans for %d exit waves, want one per wave and one at the start", label, bfs, waves)
				}
				for l := 1; l <= opt.TMax; l++ {
					want := 1
					switch {
					case l < h && l < opt.TMin && m.Combiner.LowestDepth(opt.TMin) > l:
						want = 0 // an SGC model reads no row below TMin
					case h < l && l < opt.TMax && l >= opt.TMin && left[l] > 0:
						want = 2
					}
					if props[l] != want {
						t.Fatalf("%s: %d propagate spans at hop %d (h = %d), want %d", label, props[l], l, h, want)
					}
				}
			}

			check(InferenceOptions{Mode: ModeDistance, Ts: 0, TMin: 2, TMax: 4}, false)
			check(InferenceOptions{Mode: ModeDistance, Ts: dep.DistanceQuantile(ds.Split.Val, 1, 0.5), TMin: 1, TMax: 4}, true)
			check(InferenceOptions{Mode: ModeDistance, Ts: dep.DistanceQuantile(ds.Split.Val, 1, 0.5), TMin: 1, TMax: 5}, true)
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
	topt := fastOptions("sign")
	topt.K = 5
	sign, err := Train(ds.Graph, ds.Split, topt)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{})
	for _, m := range []*Model{trainedDeepModel(t), sign} {
		for _, p := range tiers {
			dep := deployAt(t, m, ds.Graph, p)
			ts := dep.DistanceQuantile(ds.Split.Val, 2, 0.5)
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

// TestLayerDemandRows: hop TMax−1, the hop between the layer and TMax, computes
// only the rows something reads — its active targets' rows for its wave, then
// its survivors' radius-1 ball for hop TMax — not the rest of its targets'
// one-ring ball, while Books still charges that whole ball (Algorithm 1's
// books). The batch runs on a caller-held scratch whose slab starts all NaN,
// at TMax 4 and 5 (h = 2 and 3), with waves from TMax−1 on, and from h on:
// then the survivors' BFS at TMax−1 must not overwrite the balls of the BFS
// after the wave at h, which it subtracts the hop's written rows from. The
// batch's BFS up to h — the first, and the one after a wave at h — stops at
// ring TMax−h, the last one the data path reads.
func TestLayerDemandRows(t *testing.T) {
	eachTier(t, testLayerDemandRows[float64], testLayerDemandRows[float32])
}

func testLayerDemandRows[T float64 | float32](t *testing.T, p kernel.Precision) {
	ds := tinyData(t)
	m := trainedDeepModel(t)
	dep := deployAt(t, m, ds.Graph, p)
	eng := tierOf[T](t, dep)
	g, f := dep.Graph, dep.Graph.F()
	targets := ds.Split.Test
	for _, tmax := range []int{4, 5} {
		l, h := tmax-1, layerDepth(tmax)
		for _, tmin := range []int{l, h} {
			label := fmt.Sprintf("%v/tmin=%d/tmax=%d", p, tmin, tmax)
			opt := InferenceOptions{Mode: ModeDistance, Ts: dep.DistanceQuantile(ds.Split.Val, l, 0.5), TMin: tmin, TMax: tmax}
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
			whole := graph.Ball(g.Adj, activeAt(l), 1) // what hop l computed before the demand order
			written := map[int]bool{}
			for _, v := range activeAt(l) {
				written[v] = true
			}
			for _, v := range graph.Ball(g.Adj, activeAt(tmax), 1) {
				written[v] = true
			}
			if len(written) == len(whole) {
				t.Fatalf("%s: the survivors' ball covers the active targets' one-ring ball; nothing to skip", label)
			}

			support := graph.Ball(g.Adj, targets, tmax-h-1) // no wave before h
			sc := &inferScratch[T]{slab: make([]T, (tmax-h)*len(support)*f)}
			for i := range sc.slab {
				sc.slab[i] = T(math.NaN())
			}
			sc.prepare(g.N(), len(targets))
			got := booked(t, dep, targets, opt, eng.inferBatch(targets, opt, sc, nil))
			requireSameResult(t, label, got, want)
			if r := len(sc.bfs.ends) - 1; r != tmax-h {
				t.Fatalf("%s: the batch's BFS ran to radius %d, want TMax−h = %d: the rings past it are Books'", label, r, tmax-h)
			}
			books := 0
			for j := 1; j <= tmax; j++ {
				books += dep.Adj.NNZRows(graph.Ball(g.Adj, activeAt(j), tmax-j))
			}
			if got.MACs.Propagation != books*f {
				t.Fatalf("%s: propagation MACs %d, the books charge %d", label, got.MACs.Propagation, books*f)
			}
			if sc.s != len(support) {
				t.Fatalf("%s: S has %d rows, the targets' radius-%d ball %d", label, sc.s, tmax-h-1, len(support))
			}
			if tmin == h {
				// The last two BFSes, around the targets active at l and at
				// TMax, both still whole: one in each wave ring.
				sources := func(rg *rings) string {
					if len(rg.balls) == 0 {
						return "no BFS"
					}
					return fmt.Sprint(rg.balls[0])
				}
				got := []string{sources(&sc.wave[0]), sources(&sc.wave[1])}
				slices.Sort(got)
				want := []string{fmt.Sprint(sortedUnique(activeAt(l), nil)), fmt.Sprint(sortedUnique(activeAt(tmax), nil))}
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: the wave rings hold BFSes from %v, want from the targets active at %d and at TMax: %v", label, got, l, want)
				}
			}
			rows := sc.hop(l)
			for k, v := range support {
				nan := 0
				for _, x := range rows[k*f : (k+1)*f] {
					if math.IsNaN(float64(x)) {
						nan++
					}
				}
				if computed := nan == 0; computed != written[v] || nan != 0 && nan != f {
					t.Fatalf("%s: hop %d's row of node %d has %d NaN of %d, want it computed: %v (%d rows written, %d before the demand order)",
						label, l, v, nan, f, written[v], len(written), len(whole))
				}
			}
		}
	}
}

// TestLayerHubRows: at every tier, whenever h+1 < TMax (TMax 3, 4 and 5 on
// the K = 5 model: hub rows of X^(2), X^(3) and X^(4)), hop h+1 keeps the
// hubs' rows. The members are the ⌈n/32⌉ nodes of highest degree, ties broken
// toward the lower id. After one batch the resident hub rows are exactly the
// hubs among the rows its hop h+1 computed — its active targets, then its
// survivors' radius-(TMax−h−1) ball — and a repeat batch computes none of
// them. A resident hub row is read, not recomputed: poisoned with NaN, it
// keeps its hub, a lone target, from exiting at h+1 under a threshold any
// finite distance meets. A delta empties every hub row, and the next batches
// equal the seed's. A row another batch is still filling is computed, not
// waited for (a batch that waited would hang here) and not read (its NaN does
// not show), and it is left to its claimer. TMax ≤ 2 allocates no hub layer.
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
	// tinyData's graph at four times the nodes, 20 hubs: hop h+1 of a few test
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
		opt := InferenceOptions{Mode: ModeDistance, Ts: dep.DistanceQuantile(ds.Split.Val, l, 0.5), TMin: l, TMax: tmax}
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
		if top := topDegree(g.Adj, (g.N()+31)/32); !slices.Equal(hub.members, top) {
			t.Fatalf("%s: hub members %v, the highest-degree nodes %v", label, hub.members, top)
		}

		// The rows hop l computed: its active targets, then the survivors'
		// radius-(TMax−l) ball.
		activeAt := func(j int) []int {
			var out []int
			for i, v := range targets {
				if want.Depths[i] >= j {
					out = append(out, v)
				}
			}
			return out
		}
		computed := map[int]bool{}
		for _, v := range append(activeAt(l), graph.Ball(g.Adj, activeAt(l+1), tmax-l)...) {
			computed[v] = true
		}
		resident := 0
		for k, v := range hub.members {
			if ready := hub.state[k].Load() == slotReady; ready != computed[v] {
				t.Fatalf("%s: hub %d resident=%v, computed by hop %d=%v", label, v, ready, l, computed[v])
			}
			if computed[v] {
				resident++
			}
		}
		if resident == 0 || resident == len(hub.members) {
			t.Fatalf("%s: hop %d computed %d of %d hub rows, want some and not all", label, l, resident, len(hub.members))
		}
		before := dep.Hop1Stats()
		got, _ = dep.Infer(targets, opt)
		requireSameResult(t, label+"/repeat", got, want)
		if s := dep.Hop1Stats(); s.Computed != before.Computed || int(s.FromMemo-before.FromMemo) < resident {
			t.Fatalf("%s: the repeat batch computed %d rows and read %d resident, %d hub rows were resident", label, s.Computed-before.Computed, s.FromMemo-before.FromMemo, resident)
		}

		// A lone hub target that every finite distance lets exit at l.
		k := slices.IndexFunc(hub.members, func(v int) bool { return computed[v] })
		lone := hub.members[k : k+1]
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

		// A row another batch is filling: computed, not read, not published.
		poison()
		hub.state[k].Store(slotFilling)
		got, _ = dep.Infer(lone, exitAt)
		requireSameResult(t, label+"/hub being filled", got, seedInfer(dep, lone, exitAt))
		if got.Depths[0] != l || hub.state[k].Load() != slotFilling || !math.IsNaN(float64(hub.block[k*f])) {
			t.Fatalf("%s: a batch over hub %d, being filled elsewhere, exited at %d (want %d) and left the slot %d", label, lone[0], got.Depths[0], l, hub.state[k].Load())
		}
		hub.state[k].Store(slotEmpty)
		requireColdWarmSame(t, label+"/after the delta", dep, targets, opt)
	}
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
// every hub row of X^(3), and the next read recomputes exactly those.
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
	hubs := len(hub.members) // hop 3 runs over every node: every hub row is resident
	if s := dep.Hop1Stats(); s.Entries != g.N()+hubs {
		t.Fatalf("reading every node at TMax 4 left %d rows resident, want %d of X^(2) and %d hub rows of X^(3)", s.Entries, g.N(), hubs)
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
		if empty := lay.state[w].Load() == slotEmpty; empty != stale[w] {
			t.Fatalf("row %d of X^(2): empty=%v, want %v (%d rows within a hop of the %d moved ones)", w, empty, stale[w], len(stale), len(valDirty))
		}
	}
	if _, resident := hubCounts(dep); resident != 0 {
		t.Fatalf("the delta left %d hub rows of X^(3) resident", resident)
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
// slots, which a loser computes instead of waiting for. Every one must see
// the seed's answer.
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

// TestLayerWaitsForRowBeingFilled pins publish-before-read on the one row it
// is about: a batch that finds a row of its ball claimed by someone else
// publishes its own rows, then does not start hop h+1 until that row is
// ready — for X^(1) read at TMax 2 and X^(2) at TMax 4.
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
		held := ball[len(ball)-1]
		if held == target[0] {
			held = ball[0]
		}
		lay.state[held].Store(slotFilling) // someone else is computing it

		done := make(chan *Result)
		go func() {
			res, err := dep.Infer(target, opt)
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		// The batch claims, computes and publishes every other row of the ball …
		for dep.Hop1Stats().Entries < len(ball)-1 {
			runtime.Gosched()
		}
		// … and cannot have answered: hop h+1 would read the held row.
		select {
		case <-done:
			t.Fatalf("TMax %d: Infer returned while a row of its ball was still being filled", c.tmax)
		default:
		}
		propagate(dep.Adj, eng.base, []int{held}, []int{held}, h, g.F(), lay.block, &hopScratch[float64]{})
		lay.state[held].Store(slotReady)
		requireSameResult(t, fmt.Sprintf("TMax %d after the held row was published", c.tmax), <-done, want)
		// Beside the layer's rows, hop h+1 < TMax publishes the hub rows it computed.
		_, hubs := hubCounts(dep)
		if s := dep.Hop1Stats(); int(s.Computed) != len(ball)-1+hubs {
			t.Fatalf("TMax %d: the batch computed %d rows, its ball has %d, one was held, and %d hub rows are resident", c.tmax, s.Computed, len(ball), hubs)
		}
	}
}
