package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
)

// The X^(1) layer's contract: a float-tier batch on a complete memo reads hop 1
// where the memo keeps it — hop 2 gathers from the block, the supporting ball
// loses its outer ring — and answers exactly what a memo-less engine does,
// which propagates hop 1 into its slab; a partial memo and a memo with no
// slots take that second path too. Which one a batch takes follows from the
// graph and the tier (tier.layered), so these tests pick graphs: the dense
// fixture (denseData) is complete at its production budget.

// tierOf returns dep's engine at its element type.
func tierOf[T float64 | float32](t *testing.T, dep *Deployment) *tier[T] {
	t.Helper()
	e, ok := dep.eng.(*tier[T])
	if !ok {
		t.Fatalf("engine is %T", dep.eng)
	}
	return e
}

// recold empties dep's memo, keeping its budget.
func recold[T float64 | float32](e *tier[T]) {
	e.memo.reset(e.d.Adj, e.d.Graph.F(), e.memo.budget)
}

func TestLayerDifferential(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testLayerDifferential[float64](t, kernel.PrecisionF64) })
	t.Run("f32", func(t *testing.T) { testLayerDifferential[float32](t, kernel.PrecisionF32) })
}

func testLayerDifferential[T float64 | float32](t *testing.T, p kernel.Precision) {
	ds := denseData(t)
	m := trainedModel(t)
	var opts []InferenceOptions
	for _, mode := range []Mode{ModeFixed, ModeDistance, ModeGate} {
		for tmax := 1; tmax <= m.K; tmax++ {
			opts = append(opts,
				InferenceOptions{Mode: mode, Ts: 0.8, TMin: 1, TMax: tmax},
				InferenceOptions{Mode: mode, Ts: 0.8, TMin: min(2, tmax), TMax: tmax, BatchSize: 7})
		}
	}
	opts = append(opts, InferenceOptions{Mode: ModeDistance, Ts: 0.8, TMin: 1, TMax: m.K, BatchSize: 5, NoSupportRecompute: true})

	for _, cfg := range []struct {
		name    string
		rows    func(n int) int // memo slots, −1 for the production budget
		layered bool
	}{
		{"full", func(int) int { return -1 }, true},
		{"partial", func(n int) int { return n / 4 }, false},
		{"none", func(int) int { return 0 }, false},
	} {
		base, delta := carveDelta(t, ds, 12)
		dep, bare := deployAt(t, m, base, p), deployAt(t, m, base.Clone(), p)
		setMemoRows(bare, 0)
		if rows := cfg.rows(base.N()); rows >= 0 {
			setMemoRows(dep, rows)
		}
		eng := tierOf[T](t, dep)
		if eng.layered() != cfg.layered || tierOf[T](t, bare).layered() {
			t.Fatalf("%s: layered = %v, want %v (and never on the memo-less reference)", cfg.name, eng.layered(), cfg.layered)
		}
		targets := append([]int(nil), ds.Split.Test[:24]...)
		for i, v := range targets {
			targets[i] = v % base.N()
		}
		targets = append(targets, targets[3], targets[0]) // duplicates, unsorted
		check := func(stage string, targets []int) {
			t.Helper()
			for _, opt := range opts {
				label := fmt.Sprintf("%s/%s/%v/tmin=%d/tmax=%d/batch=%d", cfg.name, stage, opt.Mode, opt.TMin, opt.TMax, opt.BatchSize)
				want, err := bare.Infer(targets, opt)
				if err != nil {
					t.Fatal(err)
				}
				if p == kernel.PrecisionF64 {
					requireSameResult(t, label+"/reference vs seed", want, seedInfer(bare, targets, opt))
				}
				got, err := dep.Infer(targets, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, label, got, want)
			}
		}

		// Cold for every option, then warm from those runs.
		for _, opt := range opts {
			recold(eng)
			want, _ := bare.Infer(targets, opt)
			got, err := dep.Infer(targets, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%s/cold/%v/tmax=%d/batch=%d", cfg.name, opt.Mode, opt.TMax, opt.BatchSize), got, want)
		}
		check("warm", targets)

		// A delta between two existing nodes drops their rows and their
		// neighbors': among them rows of the ring a deep read of target 0
		// only reads, which its next batch must find empty and recompute.
		one := targets[:1]
		ring := graph.RingScratch(base.Adj, graph.Ball(base.Adj, one, m.K-2), make([]bool, base.N()), nil)
		u, v := ring[0], -1
		for c := base.N() - 1; c >= 0 && v < 0; c-- {
			if c != u && base.Adj.At(u, c) == 0 {
				v = c
			}
		}
		for _, x := range []*Deployment{dep, bare} {
			if _, err := x.ApplyDelta(graph.Delta{Src: []int{u}, Dst: []int{v}}); err != nil {
				t.Fatal(err)
			}
		}
		if cfg.layered {
			if eng.memo.state[u].Load() != slotEmpty {
				t.Fatalf("%s: the delta left ring row %d of target %d resident", cfg.name, u, one[0])
			}
			before := dep.Hop1Stats().Computed
			check("after dropped ring rows", one)
			if eng.memo.state[u].Load() != slotReady || dep.Hop1Stats().Computed == before {
				t.Fatalf("%s: ring row %d was not recomputed by the batch that read it", cfg.name, u)
			}
		}
		check("after dropped rows", targets)

		// Appended nodes: their rows land in the same block, a complete memo
		// stays complete, and reads of the newcomers and through them agree.
		for _, x := range []*Deployment{dep, bare} {
			if _, err := x.ApplyDelta(delta.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		n := dep.Graph.N()
		if eng.layered() != cfg.layered || cfg.layered && (len(eng.memo.block) != n*base.F() || len(eng.memo.state) != n) {
			t.Fatalf("%s: after %d appended nodes layered = %v, block holds %d rows", cfg.name, 12, eng.layered(), len(eng.memo.block)/base.F())
		}
		check("after appended nodes", append(rangeInts(n-12, n), targets...))
	}
}

// TestLayerHeadroomAvoidsCopy: the block of a complete memo has room, inside
// the budget, for the rows deltas append, so growing it moves no row.
func TestLayerHeadroomAvoidsCopy(t *testing.T) {
	ds := denseData(t)
	m := trainedModel(t)
	base, delta := carveDelta(t, ds, 3)
	dep := deployAt(t, m, base, kernel.PrecisionF64)
	eng := tierOf[float64](t, dep)
	f := base.F()
	if !eng.layered() || cap(eng.memo.block) < (base.N()+3)*f {
		t.Fatalf("layered = %v, block has room for %d rows of %d", eng.layered(), cap(eng.memo.block)/f, base.N()+3)
	}
	if held := 8*cap(eng.memo.block) + 4*cap(eng.memo.ids) + 4*cap(eng.memo.state); held > memoBudget(dep.Adj) {
		t.Fatalf("memo retains %d B with its headroom, budget %d B", held, memoBudget(dep.Adj))
	}
	first := &eng.memo.block[0]
	if _, err := dep.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if &eng.memo.block[0] != first || len(eng.memo.block) != dep.Graph.N()*f || !eng.layered() {
		t.Fatalf("appending 3 nodes moved the block (or left it incomplete: %d rows for %d nodes)", len(eng.memo.block)/f, dep.Graph.N())
	}
}

// TestLayerConcurrentColdStart: eight callers start on one cold deployment at
// once (run under -race), so rows one needs are being filled by another —
// publish before read. Every one must see the memo-less answer.
func TestLayerConcurrentColdStart(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testLayerConcurrentColdStart[float64](t, kernel.PrecisionF64) })
	t.Run("f32", func(t *testing.T) { testLayerConcurrentColdStart[float32](t, kernel.PrecisionF32) })
}

func testLayerConcurrentColdStart[T float64 | float32](t *testing.T, p kernel.Precision) {
	ds := denseData(t)
	m := trainedModel(t)
	dep, bare := deployAt(t, m, ds.Graph.Clone(), p), deployAt(t, m, ds.Graph.Clone(), p)
	setMemoRows(bare, 0)
	eng := tierOf[T](t, dep)
	if !eng.layered() {
		t.Fatal("the dense fixture's memo is not complete")
	}
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
			var err error
			if wants[c], err = bare.Infer(windows[c], opt); err != nil {
				t.Fatal(err)
			}
		}
		recold(eng)
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
	dep, bare := deployAt(t, m, g, kernel.PrecisionF64), deployAt(t, m, g.Clone(), kernel.PrecisionF64)
	setMemoRows(bare, 0)
	eng := tierOf[float64](t, dep)
	opt := InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 2}
	target := ds.Split.Test[:1]
	want, err := bare.Infer(target, opt)
	if err != nil {
		t.Fatal(err)
	}
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
