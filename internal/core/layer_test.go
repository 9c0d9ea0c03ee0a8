package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/synth"
)

// The X^(1) layer's contract, on every graph and at every tier: a batch reads
// hop 1 where the deployment keeps it — hop 2 gathers from the block, the
// supporting ball stops one ring short — and answers exactly what the seed
// transcription does, which propagates hop 1 over the whole radius-(TMax−1)
// ball like any other hop.

// tierOf returns dep's engine at its element type.
func tierOf[T float64 | float32](t *testing.T, dep *Deployment) *tier[T] {
	t.Helper()
	e, ok := dep.eng.(*tier[T])
	if !ok {
		t.Fatalf("engine is %T", dep.eng)
	}
	return e
}

func TestLayerDifferential(t *testing.T) {
	eachTier(t, testLayerDifferential[float64], testLayerDifferential[float32])
}

func testLayerDifferential[T float64 | float32](t *testing.T, p kernel.Precision) {
	m := trainedModel(t)
	var opts []InferenceOptions
	for _, mode := range []Mode{ModeFixed, ModeDistance, ModeGate} {
		for tmax := 1; tmax <= m.K; tmax++ {
			opts = append(opts,
				InferenceOptions{Mode: mode, Ts: 0.8, TMin: 1, TMax: tmax},
				InferenceOptions{Mode: mode, Ts: 0.8, TMin: min(2, tmax), TMax: tmax, BatchSize: 7})
		}
	}

	// The sparse graph's block outweighs its adjacency, the dense one's does not.
	for name, ds := range map[string]*synth.Dataset{"sparse": tinyData(t), "dense": denseData(t)} {
		base, delta := carveDelta(t, ds, 12)
		dep := deployAt(t, m, base, p)
		eng := tierOf[T](t, dep)
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
			requireSameResult(t, fmt.Sprintf("%s/cold/%v/tmax=%d/batch=%d", name, opt.Mode, opt.TMax, opt.BatchSize),
				got, seedInfer(dep, targets, opt))
		}
		check("warm", targets)

		// A delta between two existing nodes drops their rows and their
		// neighbors' (at int8, every row): among them rows of the ring a deep
		// read of target 0 only reads, which its next batch must find empty
		// and recompute.
		one := targets[:1]
		ring := graph.RingScratch(base.Adj, graph.Ball(base.Adj, one, m.K-2), make([]bool, base.N()), nil)
		u, v := ring[0], -1
		for c := base.N() - 1; c >= 0 && v < 0; c-- {
			if c != u && base.Adj.At(u, c) == 0 {
				v = c
			}
		}
		if _, err := dep.ApplyDelta(graph.Delta{Src: []int{u}, Dst: []int{v}}); err != nil {
			t.Fatal(err)
		}
		if eng.memo.state[u].Load() != slotEmpty {
			t.Fatalf("%s: the delta left ring row %d of target %d resident", name, u, one[0])
		}
		before := dep.Hop1Stats().Computed
		check("after dropped ring rows", one)
		if eng.memo.state[u].Load() != slotReady || dep.Hop1Stats().Computed == before {
			t.Fatalf("%s: ring row %d was not recomputed by the batch that read it", name, u)
		}
		check("after dropped rows", targets)

		// Appended nodes: their rows land in the same block, and reads of the
		// newcomers and through them agree — with the seed, and with a
		// deployment built fresh on the merged graph.
		if _, err := dep.ApplyDelta(delta.Clone()); err != nil {
			t.Fatal(err)
		}
		n := dep.Graph.N()
		if len(eng.memo.block) != n*base.F() || len(eng.memo.state) != n {
			t.Fatalf("%s: after 12 appended nodes the block holds %d rows for %d nodes", name, len(eng.memo.block)/base.F(), n)
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

// TestLayerHeadroomAvoidsCopy: the block has room for the rows deltas append,
// so growing it by a few nodes moves no row.
func TestLayerHeadroomAvoidsCopy(t *testing.T) {
	ds := denseData(t)
	m := trainedModel(t)
	base, delta := carveDelta(t, ds, 3)
	dep := deployAt(t, m, base, kernel.PrecisionF64)
	eng := tierOf[float64](t, dep)
	f := base.F()
	if cap(eng.memo.block) < (base.N()+3)*f {
		t.Fatalf("block has room for %d rows of %d", cap(eng.memo.block)/f, base.N()+3)
	}
	first := &eng.memo.block[0]
	if _, err := dep.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if &eng.memo.block[0] != first || len(eng.memo.block) != dep.Graph.N()*f {
		t.Fatalf("appending 3 nodes moved the block (or left it short: %d rows for %d nodes)", len(eng.memo.block)/f, dep.Graph.N())
	}
}

// TestLayerConcurrentColdStart: eight callers start on one cold deployment at
// once (run under -race), so rows one needs are being filled by another —
// publish before read. Every one must see the seed's answer.
func TestLayerConcurrentColdStart(t *testing.T) {
	eachTier(t, testLayerConcurrentColdStart, testLayerConcurrentColdStart)
}

func testLayerConcurrentColdStart(t *testing.T, p kernel.Precision) {
	ds := denseData(t)
	m := trainedModel(t)
	dep := deployAt(t, m, ds.Graph.Clone(), p)
	const callers = 8
	opts := []InferenceOptions{
		{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K, BatchSize: 16},
		{Mode: ModeGate, TMin: 1, TMax: 2},
		{Mode: ModeFixed, TMin: 1, TMax: 1, BatchSize: 3},
	}
	for round := 0; round < 6; round++ {
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
			requireSameResult(t, fmt.Sprintf("round %d caller %d", round, c), got, wants[c])
		}
		if s := dep.Hop1Stats(); s.Entries == 0 || s.Entries > ds.Graph.N() {
			t.Fatalf("round %d: %d entries for %d rows", round, s.Entries, ds.Graph.N())
		}
	}
}

// TestLayerWaitsForRowBeingFilled pins publish-before-read on the one row it
// is about: a batch that finds a row of its ball claimed by someone else
// publishes its own rows, then does not start hop 2 until that row is ready.
func TestLayerWaitsForRowBeingFilled(t *testing.T) {
	ds := denseData(t)
	m := trainedModel(t)
	g := ds.Graph.Clone()
	dep := deployAt(t, m, g, kernel.PrecisionF64)
	eng := tierOf[float64](t, dep)
	opt := InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 2}
	target := ds.Split.Test[:1]
	want := seedInfer(dep, target, opt)
	ball := graph.Ball(g.Adj, target, 1) // the rows a TMax-2 read of target needs
	held := ball[len(ball)-1]
	if held == target[0] {
		held = ball[0]
	}
	eng.memo.state[held].Store(slotFilling) // someone else is computing it

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
	// … and cannot have answered: hop 2 would read the held row.
	select {
	case <-done:
		t.Fatal("Infer returned while a row of its ball was still being filled")
	default:
	}
	eng.mulRows(eng.base, []int{held}, []int{held}, nil, g.F(), eng.memo.block)
	eng.memo.state[held].Store(slotReady)
	requireSameResult(t, "after the held row was published", <-done, want)
	if s := dep.Hop1Stats(); int(s.Computed) != len(ball)-1 {
		t.Fatalf("the batch computed %d rows, its ball has %d and one was held", s.Computed, len(ball))
	}
}
