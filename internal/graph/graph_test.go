package graph

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/sparse"
)

// lineGraph builds a labelled path graph 0-1-...-(n-1) with 1-d features.
func lineGraph(t *testing.T, n, classes int) *Graph {
	t.Helper()
	src := make([]int, 0, n-1)
	dst := make([]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		src = append(src, i)
		dst = append(dst, i+1)
	}
	feats := mat.New(n, 1)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		feats.Set(i, 0, float64(i))
		labels[i] = i % classes
	}
	g, err := New(sparse.FromEdges(n, src, dst, true), feats, labels, classes)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	adj := sparse.FromEdges(2, []int{0}, []int{1}, true)
	if _, err := New(adj, mat.New(3, 1), []int{0, 0}, 1); err == nil {
		t.Fatal("expected feature-row mismatch error")
	}
	if _, err := New(adj, mat.New(2, 1), []int{0}, 1); err == nil {
		t.Fatal("expected label-count mismatch error")
	}
	if _, err := New(adj, mat.New(2, 1), []int{0, 5}, 2); err == nil {
		t.Fatal("expected label-range error")
	}
	if _, err := New(adj, mat.New(2, 1), []int{0, 1}, 2); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := lineGraph(t, 5, 2)
	if g.N() != 5 || g.M() != 4 || g.F() != 1 {
		t.Fatalf("N/M/F = %d/%d/%d", g.N(), g.M(), g.F())
	}
}

func TestRandomSplitPartition(t *testing.T) {
	g := lineGraph(t, 100, 4)
	sp := RandomSplit(g, 0.5, 0.25, rand.New(rand.NewSource(1)))
	seen := make([]int, g.N())
	for _, set := range [][]int{sp.Train, sp.Val, sp.Test} {
		for _, v := range set {
			seen[v]++
		}
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("node %d appears %d times across splits", v, c)
		}
	}
	if len(sp.Train) < 40 || len(sp.Train) > 60 {
		t.Fatalf("train size %d far from 50", len(sp.Train))
	}
	if !sort.IntsAreSorted(sp.Test) {
		t.Fatal("test set not sorted")
	}
}

func TestRandomSplitStratified(t *testing.T) {
	g := lineGraph(t, 200, 4)
	sp := RandomSplit(g, 0.5, 0.2, rand.New(rand.NewSource(2)))
	perClass := make([]int, 4)
	for _, v := range sp.Train {
		perClass[g.Labels[v]]++
	}
	for c, n := range perClass {
		if n != 25 { // 50 per class × 0.5
			t.Fatalf("class %d has %d train nodes, want 25", c, n)
		}
	}
}

func TestRandomSplitDeterministic(t *testing.T) {
	g := lineGraph(t, 50, 2)
	a := RandomSplit(g, 0.4, 0.3, rand.New(rand.NewSource(7)))
	b := RandomSplit(g, 0.4, 0.3, rand.New(rand.NewSource(7)))
	if len(a.Train) != len(b.Train) {
		t.Fatal("split sizes differ")
	}
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatal("splits differ for identical seeds")
		}
	}
}

func TestInduceSubgraph(t *testing.T) {
	g := lineGraph(t, 6, 2) // 0-1-2-3-4-5
	ind := g.Induce([]int{0, 1, 2, 4, 5})
	sub := ind.Graph
	if sub.N() != 5 {
		t.Fatalf("sub N = %d", sub.N())
	}
	// edges 0-1, 1-2, 4-5 survive; 2-3 and 3-4 are cut
	if sub.M() != 3 {
		t.Fatalf("sub M = %d want 3", sub.M())
	}
	// features and labels follow the mapping
	for li, gi := range ind.ToGlobal {
		if sub.Features.At(li, 0) != g.Features.At(gi, 0) {
			t.Fatalf("feature mismatch local %d global %d", li, gi)
		}
		if sub.Labels[li] != g.Labels[gi] {
			t.Fatalf("label mismatch local %d global %d", li, gi)
		}
		if ind.ToLocal[gi] != li {
			t.Fatal("ToLocal inverse broken")
		}
	}
	if ind.ToLocal[3] != -1 {
		t.Fatal("excluded node should map to -1")
	}
}

func TestInducedLocal(t *testing.T) {
	g := lineGraph(t, 6, 2)
	ind := g.Induce([]int{0, 1, 2, 4, 5})
	if got := ind.Local([]int{5, 0, 4}); got[0] != 4 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("Local = %v, want [4 0 3]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a node outside the subgraph")
		}
	}()
	ind.Local([]int{3})
}

func TestInduceDedup(t *testing.T) {
	g := lineGraph(t, 4, 2)
	ind := g.Induce([]int{2, 0, 2, 0})
	if ind.Graph.N() != 2 {
		t.Fatalf("dedup failed: N = %d", ind.Graph.N())
	}
}

func TestSupportingSetsPath(t *testing.T) {
	g := lineGraph(t, 7, 2) // 0-1-2-3-4-5-6
	sets := SupportingSets(g.Adj, []int{3}, 2)
	if len(sets) != 3 {
		t.Fatalf("len(sets) = %d", len(sets))
	}
	wantEq(t, sets[2], []int{3})
	wantEq(t, sets[1], []int{2, 3, 4})
	wantEq(t, sets[0], []int{1, 2, 3, 4, 5})
}

func TestSupportingSetsNested(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj := randomAdj(40, 0.08, rng)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		targets := []int{r.Intn(40), r.Intn(40), r.Intn(40)}
		sets := SupportingSets(adj, targets, 3)
		for l := 0; l < 3; l++ {
			if !isSubset(sets[l+1], sets[l]) {
				return false
			}
			if !sort.IntsAreSorted(sets[l]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSupportingSetsMatchBFSBall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	adj := randomAdj(30, 0.1, rng)
	targets := []int{0, 7}
	for radius := 0; radius <= 3; radius++ {
		ball := Ball(adj, targets, radius)
		dist := BFSDistances(adj, targets)
		var want []int
		for v, d := range dist {
			if d >= 0 && d <= radius {
				want = append(want, v)
			}
		}
		wantEq(t, ball, want)
	}
}

// seedSupportingSets is SupportingSets as the seed implementation computed
// it: every ring walked from the inside over a []bool visited buffer, the
// whole ball sorted again at every ring. The naive reference of the BFS's
// property tests (TestSupportingSetsMatchSeedImplementation,
// TestLevelsMatchSupportingSets, FuzzLevels).
func seedSupportingSets(adj *sparse.CSR, targets []int, hops int) [][]int {
	mark := make([]bool, adj.Rows)
	sets := make([][]int, hops+1)
	cur := append([]int(nil), targets...)
	sort.Ints(cur)
	cur = slices.Compact(cur)
	sets[hops] = cur
	for l := hops - 1; l >= 0; l-- {
		for _, v := range cur {
			mark[v] = true
		}
		next := append([]int(nil), cur...)
		for _, v := range cur {
			for _, u := range adj.RowIndices(v) {
				if !mark[u] {
					mark[u] = true
					next = append(next, int(u))
				}
			}
		}
		for _, v := range next {
			mark[v] = false
		}
		sort.Ints(next)
		sets[l] = next
		cur = next
	}
	return sets
}

// TestSupportingSetsMatchSeedImplementation: the same sets in the same order
// as the seed implementation, on random graphs from a few isolated edges to
// dense enough that a ring is found bottom-up (the ball holds most of the
// edges) and read off the visited set (the ring holds most of the nodes), for
// duplicate and unsorted targets.
func TestSupportingSetsMatchSeedImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var bottomUp, swept int
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(120)
		adj := randomAdj(n, []float64{0.01, 0.05, 0.2, 0.6}[trial%4], rng)
		targets := make([]int, 1+rng.Intn(6))
		for i := range targets {
			targets[i] = rng.Intn(n)
		}
		if trial%3 == 0 {
			targets = append(targets, targets[0], targets[len(targets)/2]) // duplicates
		}
		hops := rng.Intn(5)
		want := seedSupportingSets(adj, targets, hops)
		got := SupportingSets(adj, targets, hops)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d sets, seed %d", trial, len(got), len(want))
		}
		for l := range want {
			wantEq(t, got[l], want[l])
		}
		for l := hops; l > 0; l-- {
			if 2*adj.NNZRows(got[l]) > adj.NNZ() {
				bottomUp++
			}
			if ring := len(got[l-1]) - len(got[l]); ring*bits.Len(uint(ring)) > (n+63)/64 {
				swept++
			}
		}
	}
	if bottomUp == 0 || swept == 0 {
		t.Fatalf("the trials never found a ring bottom-up (%d) or read a ball off the visited set (%d)", bottomUp, swept)
	}
}

func TestSupportingSetsZeroHops(t *testing.T) {
	g := lineGraph(t, 5, 2)
	sets := SupportingSets(g.Adj, []int{1, 3}, 0)
	if len(sets) != 1 {
		t.Fatalf("len = %d", len(sets))
	}
	wantEq(t, sets[0], []int{1, 3})
}

func TestBFSDistances(t *testing.T) {
	g := lineGraph(t, 5, 2)
	dist := BFSDistances(g.Adj, []int{0})
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d want %d", i, dist[i], want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	adj := sparse.FromEdges(4, []int{0}, []int{1}, true) // 2,3 isolated
	dist := BFSDistances(adj, []int{0})
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatal("unreachable nodes should be -1")
	}
}

func TestBatches(t *testing.T) {
	nodes := []int{1, 2, 3, 4, 5}
	b := Batches(nodes, 2)
	if len(b) != 3 || len(b[0]) != 2 || len(b[2]) != 1 {
		t.Fatalf("Batches = %v", b)
	}
	if got := Batches(nil, 3); got != nil {
		t.Fatalf("Batches(nil) = %v", got)
	}
}

func TestBatchesPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Batches([]int{1}, 0)
}

// --- helpers ---

func wantEq(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func isSubset(small, big []int) bool {
	set := make(map[int]bool, len(big))
	for _, v := range big {
		set[v] = true
	}
	for _, v := range small {
		if !set[v] {
			return false
		}
	}
	return true
}

func randomAdj(n int, p float64, rng *rand.Rand) *sparse.CSR {
	var src, dst []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				src = append(src, i)
				dst = append(dst, j)
			}
		}
	}
	return sparse.FromEdges(n, src, dst, true)
}

func TestIndexSetLocalizeRoundTrip(t *testing.T) {
	g := lineGraph(t, 10, 2)
	toLocal := NewIndex(g.N())
	for _, v := range toLocal {
		if v != -1 {
			t.Fatal("NewIndex not all -1")
		}
	}
	universe := []int{2, 4, 5, 8}
	IndexSet(universe, toLocal)
	for i, v := range universe {
		if toLocal[v] != int32(i) {
			t.Fatalf("toLocal[%d] = %d want %d", v, toLocal[v], i)
		}
	}
	local := LocalizeSet([]int{4, 5, 8}, toLocal, nil)
	want := []int{1, 2, 3}
	for i := range want {
		if local[i] != want[i] {
			t.Fatalf("LocalizeSet = %v want %v", local, want)
		}
	}
	// Sorted global input stays sorted locally (monotone map).
	for i := 1; i < len(local); i++ {
		if local[i] <= local[i-1] {
			t.Fatalf("localized set not sorted: %v", local)
		}
	}
	// Reuse: a longer destination buffer is truncated, not appended to.
	buf := make([]int, 10)
	local = LocalizeSet([]int{2}, toLocal, buf)
	if len(local) != 1 || local[0] != 0 {
		t.Fatalf("LocalizeSet with reused buffer = %v", local)
	}
	ResetIndex(universe, toLocal)
	for _, v := range toLocal {
		if v != -1 {
			t.Fatal("ResetIndex did not restore -1")
		}
	}
}

func TestLocalizeSetOutsideUniversePanics(t *testing.T) {
	toLocal := NewIndex(5)
	IndexSet([]int{1, 3}, toLocal)
	defer func() {
		if recover() == nil {
			t.Fatal("node outside universe did not panic")
		}
	}()
	LocalizeSet([]int{2}, toLocal, nil)
}

func TestSupportingSetsNestedInHopZeroBall(t *testing.T) {
	// The compacted serving engine relies on every supporting set — and
	// every set re-derived around a subset of the targets at a smaller
	// radius — being contained in the original hop-0 ball.
	rng := rand.New(rand.NewSource(7))
	var src, dst []int
	n := 60
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.05 {
				src = append(src, i)
				dst = append(dst, j)
			}
		}
	}
	adj := sparse.FromEdges(n, src, dst, true)
	targets := []int{3, 17, 42, 55}
	hops := 3
	sets := SupportingSets(adj, targets, hops)
	in := make(map[int]bool)
	for _, v := range sets[0] {
		in[v] = true
	}
	for l := 1; l <= hops; l++ {
		for _, v := range sets[l] {
			if !in[v] {
				t.Fatalf("sets[%d] node %d outside hop-0 ball", l, v)
			}
		}
	}
	survivors := targets[:2]
	shrunk := SupportingSets(adj, survivors, hops-1)
	for l := range shrunk {
		for _, v := range shrunk[l] {
			if !in[v] {
				t.Fatalf("re-derived set %d node %d outside original ball", l, v)
			}
		}
	}
}
