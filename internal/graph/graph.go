// Package graph provides the graph container and the inductive-inference
// machinery of the paper: train/val/test splits where test nodes are unseen
// during training, induced training subgraphs, and k-hop supporting-set
// extraction (the "supporting nodes" of the neighbor-explosion problem).
//
// Every k-hop ball comes from one BFS, Levels, which finds it ring by ring
// over a caller-owned bitset — a large ring as a second bitset, its work
// split over par workers, so a deep batch's BFS runs on every core and its
// large rings come out in id order; SortedBalls sorts its balls, and Ball
// and SupportingSets are Levels plus that sort. BFSDistances is the plain
// queue BFS the tests check distances against.
package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Graph is an undirected attributed graph for node classification.
type Graph struct {
	// Adj is the binary symmetric adjacency without self-loops: a pattern
	// (nil Val) with int32 column ids.
	Adj *sparse.CSR
	// Features is the n×f node attribute matrix.
	Features *mat.Matrix
	// Labels holds one class id per node.
	Labels []int
	// NumClasses is the number of distinct classes.
	NumClasses int
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.Adj.Rows }

// M returns the number of undirected edges (stored entries / 2).
func (g *Graph) M() int { return g.Adj.NNZ() / 2 }

// F returns the feature dimension.
func (g *Graph) F() int { return g.Features.Cols }

// New validates and assembles a graph.
func New(adj *sparse.CSR, features *mat.Matrix, labels []int, numClasses int) (*Graph, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graph: adjacency %dx%d not square", adj.Rows, adj.Cols)
	}
	if features.Rows != adj.Rows {
		return nil, fmt.Errorf("graph: %d feature rows for %d nodes", features.Rows, adj.Rows)
	}
	if len(labels) != adj.Rows {
		return nil, fmt.Errorf("graph: %d labels for %d nodes", len(labels), adj.Rows)
	}
	for i, y := range labels {
		if y < 0 || y >= numClasses {
			return nil, fmt.Errorf("graph: label %d of node %d outside [0,%d)", y, i, numClasses)
		}
	}
	return &Graph{Adj: adj, Features: features, Labels: labels, NumClasses: numClasses}, nil
}

// Clone returns a deep copy sharing no storage with g — the safe way to
// hand one fixture graph to several consumers of deltas. ApplyDelta grows
// the features and labels in place and replaces the adjacency with a new
// CSR, leaving the old one to whoever else holds it.
func (g *Graph) Clone() *Graph {
	return &Graph{
		Adj:        g.Adj.Clone(),
		Features:   g.Features.Clone(),
		Labels:     append([]int(nil), g.Labels...),
		NumClasses: g.NumClasses,
	}
}

// Split partitions nodes for the inductive setting: the model is trained on
// the subgraph induced by Train ∪ Val and evaluated on Test inside the full
// graph, so test nodes (and their incident edges) are unseen at training time.
type Split struct {
	Train, Val, Test []int
}

// RandomSplit draws a class-stratified split with the given fractions
// (fractions must be positive and sum to at most 1; any remainder joins Test).
func RandomSplit(g *Graph, trainFrac, valFrac float64, rng *rand.Rand) Split {
	if trainFrac <= 0 || valFrac <= 0 || trainFrac+valFrac >= 1 {
		panic(fmt.Sprintf("graph: bad split fractions %v/%v", trainFrac, valFrac))
	}
	byClass := make([][]int, g.NumClasses)
	for v, y := range g.Labels {
		byClass[y] = append(byClass[y], v)
	}
	var sp Split
	for _, nodes := range byClass {
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		nTrain := int(float64(len(nodes)) * trainFrac)
		nVal := int(float64(len(nodes)) * valFrac)
		sp.Train = append(sp.Train, nodes[:nTrain]...)
		sp.Val = append(sp.Val, nodes[nTrain:nTrain+nVal]...)
		sp.Test = append(sp.Test, nodes[nTrain+nVal:]...)
	}
	sort.Ints(sp.Train)
	sort.Ints(sp.Val)
	sort.Ints(sp.Test)
	return sp
}

// Induced is a subgraph with a node-id mapping back to the parent graph.
type Induced struct {
	Graph *Graph
	// ToGlobal maps local node ids to ids in the parent graph.
	ToGlobal []int
	// ToLocal maps parent ids to local ids; -1 for nodes outside the subgraph.
	ToLocal []int
}

// Induce returns the subgraph on the given (deduplicated, sorted) node set
// with all edges whose endpoints are both inside the set.
func (g *Graph) Induce(nodes []int) *Induced {
	local := make([]int, g.N())
	for i := range local {
		local[i] = -1
	}
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	// dedupe
	uniq := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			uniq = append(uniq, v)
		}
	}
	sorted = uniq
	for li, v := range sorted {
		if v < 0 || v >= g.N() {
			panic(fmt.Sprintf("graph: Induce node %d outside [0,%d)", v, g.N()))
		}
		local[v] = li
	}
	var src, dst []int
	for li, v := range sorted {
		for _, u := range g.Adj.RowIndices(v) {
			lu := local[u]
			if lu >= 0 && lu > li { // store each undirected edge once
				src = append(src, li)
				dst = append(dst, lu)
			}
		}
	}
	adj := sparse.FromEdges(len(sorted), src, dst, true)
	labels := make([]int, len(sorted))
	for li, v := range sorted {
		labels[li] = g.Labels[v]
	}
	sub := &Graph{
		Adj:        adj,
		Features:   g.Features.GatherRows(sorted),
		Labels:     labels,
		NumClasses: g.NumClasses,
	}
	return &Induced{Graph: sub, ToGlobal: sorted, ToLocal: local}
}

// Local maps parent ids to local ids. It panics on a node outside the
// subgraph.
func (ind *Induced) Local(global []int) []int {
	out := make([]int, len(global))
	for i, v := range global {
		li := ind.ToLocal[v]
		if li < 0 {
			panic(fmt.Sprintf("graph: node %d not in induced graph", v))
		}
		out[i] = li
	}
	return out
}

// SupportingSets computes the nested node sets needed to propagate features
// `hops` times for the target nodes: sets[hops] = targets and
// sets[l] = sets[l+1] ∪ N(sets[l+1]). Computing X^{(t)} on sets[t] from
// X^{(t-1)} on sets[t-1] is then exact for every t ≤ hops. Each set is
// sorted ascending: sets[hops−r] is the radius-r ball of one Levels BFS,
// sorted by SortedBalls, so sets[0] is the full radius-`hops` ball (the
// paper's "supporting nodes", whose count explodes with depth); the sets
// share one backing array. adj must be symmetric, as every Graph's adjacency
// is (Levels).
func SupportingSets(adj *sparse.CSR, targets []int, hops int) [][]int {
	set := NewBitset(adj.Rows)
	ball, ends, _ := Levels(adj, targets, hops, set, nil, nil, nil)
	_, sets := SortedBalls(ball, ends, set, nil, nil)
	slices.Reverse(sets)
	return sets
}

// SupportingSetsScratch is SupportingSets; mark is unused.
//
// Deprecated: call SupportingSets. The signature stays while the benchmark
// ladder calls it with its []bool buffer (ROADMAP item 1(iv)).
func SupportingSetsScratch(adj *sparse.CSR, targets []int, hops int, mark []bool) [][]int {
	return SupportingSets(adj, targets, hops)
}

// mergeSorted appends the ascending merge of a and b (each ascending) to dst.
func mergeSorted(dst, a, b []int) []int {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// NewBitset allocates the all-zero bitset Levels runs on over n nodes:
// 2·⌈n/64⌉ words, one bit per node for the visited set and one for the ring
// being found.
func NewBitset(n int) []uint64 { return make([]uint64, 2*((n+63)/64)) }

// Levels is one multi-source BFS from sources out to radius, returned in ring
// order: ring 0 is the sources, each once, in order of first appearance, and
// ring r — the nodes at distance exactly r — is ball[ends[r−1]:ends[r]] (ring
// 0 is ball[:ends[0]]), so every prefix ball[:ends[r]] is the radius-r ball and
// len(ends) is radius+1. nnz[r] is the entries of adj in ring r's rows, which
// the BFS counts as it goes: the direction test needs them, and a caller's
// per-ball books are their prefix sums. ball, ends and nnz are reused when
// their capacity suffices. set is a caller-owned bitset of at least
// 2·⌈adj.Rows/64⌉ words (NewBitset): the visited set in its first ⌈adj.Rows/64⌉
// words, the ring being found in the next as many. Both are all zero on entry
// and all zero again on return — the visited set cleared node by node while
// the ball is small, wholesale once it is not.
//
// Each ring is found from the previous ring only, never by re-walking the
// ball, in one of three steps:
//   - Sparse top-down, while the previous ring's entries are fewer than the
//     visited set's words (a point read, most survivors' BFSes): its rows are
//     walked and every neighbor is written to the end of ball, kept iff its
//     bit was clear — an append with no branch on the visited set.
//   - Dense top-down, once they are not, so that the sweep below costs no
//     more than the walk: every neighbor's bit is set in the ring's half of
//     set, and only the neighbors outside the visited set are kept.
//   - Bottom-up, once the ball holds more than half of adj's entries, as the
//     outer balls of a deep batch do (direction-optimizing BFS, Beamer et al.,
//     SC'12): each node outside the ball probes its row for a neighbor inside
//     and stops at the first, which reads at most the other half of the
//     entries and usually a small part of it.
//
// The two dense steps split over par's chunks, so the ring does not depend on
// the split: a top-down chunk walks its share of the previous ring's rows,
// split by their entries, setting bits in the ring itself or, while another
// chunk runs there, in words of its own (pooled, one set per chunk running at
// once, zeroed on return) that are ORed into the ring once all are done; a
// bottom-up one probes the free nodes of its
// own words of the ring, split by their count. One serial sweep then appends the ring to ball in
// ascending id order, marks it visited and sums its rows' lengths. A dense
// step with too little work for par runs inline. adj must be symmetric, as a
// Graph's adjacency is.
func Levels(adj *sparse.CSR, sources []int, radius int, set []uint64, ball, ends, nnz []int) ([]int, []int, []int) {
	if radius < 0 {
		panic("graph: negative radius")
	}
	n, words := adj.Rows, (adj.Rows+63)/64
	if len(set) < 2*words {
		panic(fmt.Sprintf("graph: bitset of %d words < 2·⌈%d/64⌉", len(set), n))
	}
	vis, next := set[:words], set[words:2*words]
	ball, ends = ball[:0], ends[:0]
	for _, v := range sources {
		if w, b := v>>6, uint(v)&63; vis[w]>>b&1 == 0 {
			vis[w] |= 1 << b
			ball = append(ball, v)
		}
	}
	ends = append(ends, len(ball))
	nnz = append(nnz[:0], adj.NNZRows(ball))
	// ballNNZ is the whole ball's entries (the direction test's).
	ballNNZ := nnz[0]
	for r := 1; r <= radius; r++ {
		lo, hi := 0, len(ball)
		if r > 1 {
			lo = ends[r-2]
		}
		ringNNZ := 0
		switch {
		case lo == hi || hi == n:
			// The ball stopped growing: every ring past it is empty.
		case 2*ballNNZ > adj.NNZ():
			// The ring is marked only once it is whole, so every probe sees
			// the radius-(r−1) ball and nothing wider.
			par.ForWeighted(words, adj.NNZ()-ballNNZ, n-hi, func(w int) int {
				return bits.OnesCount64(free(vis, n, w))
			}, func(wlo, whi int) { probeFree(adj, vis, next, wlo, whi) })
			ball, ringNNZ = sweepRing(adj, vis, next, ball)
		case nnz[r-1] >= words:
			walkRing(adj, ball[lo:hi], nnz[r-1], next)
			ball, ringNNZ = sweepRing(adj, vis, next, ball)
		default:
			// The previous ring's entries are the walk's candidates.
			ball = slices.Grow(ball, min(nnz[r-1], n-hi)+1)
			out, k := ball[:cap(ball)], hi
			for _, v := range ball[lo:hi] {
				for _, u := range adj.RowIndices(v) {
					w, b := u>>6, uint(u)&63
					out[k] = int(u)
					k += int(^vis[w] >> b & 1)
					vis[w] |= 1 << b
				}
			}
			ball = out[:k]
			ringNNZ = adj.NNZRows(ball[hi:])
		}
		ends, nnz = append(ends, len(ball)), append(nnz, ringNNZ)
		ballNNZ += ringNNZ
	}
	if 8*len(ball) > words {
		clear(vis)
	} else {
		for _, v := range ball {
			vis[v>>6] &^= 1 << (uint(v) & 63)
		}
	}
	return ball, ends, nnz
}

// free returns word w of the nodes outside the visited set vis over n nodes.
func free(vis []uint64, n, w int) uint64 {
	f := ^vis[w]
	if rest := n - w<<6; rest < 64 {
		f &= 1<<uint(rest) - 1
	}
	return f
}

// ringWords holds all-zero ring bitsets (*[]uint64) for walkRing's chunks.
var ringWords sync.Pool

// walkRing is a dense top-down step: it sets the bit in next of every neighbor
// of frontier, whose rows hold nnz entries. The rows are split into par's
// chunks by their entries. A chunk sets its bits in a word set no running
// chunk holds — next itself, or one from ringWords that an earlier chunk
// handed back — and hands it back when done, so a pooled set is taken only
// while more chunks run at once than sets are free: at most GOMAXPROCS−1 of
// them, whatever the chunk count. They are ORed into next once all chunks
// are done and returned zeroed, one pass over ⌈n/64⌉ words each.
func walkRing(adj *sparse.CSR, frontier []int, nnz int, next []uint64) {
	var mu sync.Mutex
	spare := [][]uint64{next} // word sets no running chunk holds
	var own []*[]uint64       // the pooled ones taken
	par.ForWeighted(len(frontier), nnz, nnz, func(i int) int { return adj.RowNNZ(frontier[i]) }, func(lo, hi int) {
		mu.Lock()
		var words []uint64
		if k := len(spare) - 1; k >= 0 {
			words, spare = spare[k], spare[:k]
		} else {
			p, _ := ringWords.Get().(*[]uint64)
			if p == nil || len(*p) < len(next) {
				w := make([]uint64, len(next))
				p = &w
			}
			own = append(own, p)
			words = (*p)[:len(next)]
		}
		mu.Unlock()
		for _, v := range frontier[lo:hi] {
			for _, u := range adj.RowIndices(v) {
				words[u>>6] |= 1 << (uint(u) & 63)
			}
		}
		mu.Lock()
		spare = append(spare, words)
		mu.Unlock()
	})
	for _, p := range own {
		for w, word := range (*p)[:len(next)] {
			next[w] |= word
			(*p)[w] = 0
		}
		ringWords.Put(p)
	}
}

// probeFree is a bottom-up step over words [wlo, whi) of the ring: it sets the
// bit in next of every node outside vis with a neighbor inside.
func probeFree(adj *sparse.CSR, vis, next []uint64, wlo, whi int) {
	for w := wlo; w < whi; w++ {
		found := uint64(0)
		for f := free(vis, adj.Rows, w); f != 0; f &= f - 1 {
			b := bits.TrailingZeros64(f)
			for _, u := range adj.RowIndices(w<<6 | b) {
				if vis[u>>6]>>(uint(u)&63)&1 != 0 {
					found |= 1 << uint(b)
					break
				}
			}
		}
		next[w] = found
	}
}

// sweepRing moves the ring a dense step found in next, less the nodes already
// in vis, into vis and onto the end of ball in ascending id order, leaving
// next all zero, and returns ball with the entries of the ring's rows.
func sweepRing(adj *sparse.CSR, vis, next []uint64, ball []int) ([]int, int) {
	nnz := 0
	for w, word := range next {
		if word == 0 {
			continue
		}
		word &^= vis[w]
		vis[w] |= word
		next[w] = 0
		for ; word != 0; word &= word - 1 {
			v := w<<6 | bits.TrailingZeros64(word)
			ball = append(ball, v)
			nnz += adj.RowPtr[v+1] - adj.RowPtr[v]
		}
	}
	return ball, nnz
}

// SortedBalls sorts the balls of a Levels result: balls[r] is ball[:ends[r]]
// in ascending order, for every r < len(ends), each a view into dst, which
// holds them one after another and is reused when its capacity suffices (as
// is balls). Each ball is its predecessor merged with its ring, the ring
// sorted in place within ball — which reorders ball inside its rings, never
// across them — or, once the ring is large enough that sorting it would cost
// more than a sweep of the visited set, read off it in id order. set is
// Levels's, under the same contract.
func SortedBalls(ball, ends []int, set []uint64, dst []int, balls [][]int) ([]int, [][]int) {
	need := 0
	for _, e := range ends {
		need += e
	}
	dst, balls = slices.Grow(dst[:0], need)[:need], balls[:0]
	vis := set[:len(set)/2]
	var prev []int
	at, lo := 0, 0
	for _, hi := range ends {
		ring, out := ball[lo:hi], dst[at:at]
		if len(ring)*bits.Len(uint(len(ring))) > len(vis) {
			for _, v := range ball[:hi] {
				vis[v>>6] |= 1 << (uint(v) & 63)
			}
			for w, word := range vis {
				if word == 0 {
					continue
				}
				for vis[w] = 0; word != 0; word &= word - 1 {
					out = append(out, w<<6|bits.TrailingZeros64(word))
				}
			}
		} else {
			slices.Sort(ring)
			out = mergeSorted(out, prev, ring)
		}
		balls = append(balls, out)
		prev, at, lo = out, at+hi, hi
	}
	return dst, balls
}

// IndexSet writes the compacted coordinates of a sorted node set into
// toLocal: toLocal[set[i]] = i. toLocal must have length ≥ max(set)+1 and be
// all −1 on the touched entries; pair every call with ResetIndex so one
// full-graph map can be reused across batches. Because set is sorted, the
// resulting partial map is monotone, which downstream consumers
// (sparse.ExtractRowsInto, LocalizeSet) rely on to keep remapped CSR columns
// and row lists sorted.
func IndexSet(set []int, toLocal []int32) {
	for i, v := range set {
		toLocal[v] = int32(i)
	}
}

// ResetIndex restores the entries IndexSet wrote for set back to −1.
func ResetIndex(set []int, toLocal []int32) {
	for _, v := range set {
		toLocal[v] = -1
	}
}

// NewIndex allocates an all −1 local-coordinate map for n nodes.
func NewIndex(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	return idx
}

// LocalizeSet maps a set of global node ids through toLocal into dst
// (reused when its capacity suffices) and returns the local-coordinate set.
// Every node must be inside the indexed universe; sortedness is preserved
// because IndexSet's map is monotone.
func LocalizeSet(set []int, toLocal []int32, dst []int) []int {
	if cap(dst) < len(set) {
		dst = make([]int, len(set))
	}
	dst = dst[:len(set)]
	for i, v := range set {
		lv := toLocal[v]
		if lv < 0 {
			panic(fmt.Sprintf("graph: LocalizeSet node %d outside the indexed universe", v))
		}
		dst[i] = int(lv)
	}
	return dst
}

// Ball returns the sorted set of nodes within `radius` hops of targets
// (including the targets themselves): one Levels BFS with only its outermost
// ball sorted. adj must be symmetric (Levels).
func Ball(adj *sparse.CSR, targets []int, radius int) []int {
	set := NewBitset(adj.Rows)
	ball, ends, _ := Levels(adj, targets, radius, set, nil, nil, nil)
	_, balls := SortedBalls(ball, ends[radius:], set, nil, nil)
	return balls[0]
}

// BFSDistances returns hop distances from the source set (−1 if unreachable).
func BFSDistances(adj *sparse.CSR, sources []int) []int {
	dist := make([]int, adj.Rows)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, len(sources))
	for _, s := range sources {
		if dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj.RowIndices(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	return dist
}

// Batches splits nodes into consecutive batches of size batchSize
// (the last batch may be smaller).
func Batches(nodes []int, batchSize int) [][]int {
	if batchSize <= 0 {
		panic("graph: batch size must be positive")
	}
	var out [][]int
	for lo := 0; lo < len(nodes); lo += batchSize {
		hi := lo + batchSize
		if hi > len(nodes) {
			hi = len(nodes)
		}
		out = append(out, nodes[lo:hi])
	}
	return out
}
