package synth

import (
	"math"
	"sort"
	"testing"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{N: 1, NumClasses: 2, FeatureDim: 1, AvgDegree: 1, PowerLaw: 2, FeatureSNR: 1, TrainFrac: 0.5, ValFrac: 0.2},
		{N: 10, NumClasses: 1, FeatureDim: 1, AvgDegree: 1, PowerLaw: 2, FeatureSNR: 1, TrainFrac: 0.5, ValFrac: 0.2},
		{N: 10, NumClasses: 2, FeatureDim: 0, AvgDegree: 1, PowerLaw: 2, FeatureSNR: 1, TrainFrac: 0.5, ValFrac: 0.2},
		{N: 10, NumClasses: 2, FeatureDim: 1, AvgDegree: 0, PowerLaw: 2, FeatureSNR: 1, TrainFrac: 0.5, ValFrac: 0.2},
		{N: 10, NumClasses: 2, FeatureDim: 1, AvgDegree: 1, PowerLaw: 1, FeatureSNR: 1, TrainFrac: 0.5, ValFrac: 0.2},
		{N: 10, NumClasses: 2, FeatureDim: 1, AvgDegree: 1, PowerLaw: 2, Homophily: 1.5, FeatureSNR: 1, TrainFrac: 0.5, ValFrac: 0.2},
		{N: 10, NumClasses: 2, FeatureDim: 1, AvgDegree: 1, PowerLaw: 2, FeatureSNR: 0, TrainFrac: 0.5, ValFrac: 0.2},
		{N: 10, NumClasses: 2, FeatureDim: 1, AvgDegree: 1, PowerLaw: 2, FeatureSNR: 1, TrainFrac: 0.9, ValFrac: 0.2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
	if err := Tiny(1).Validate(); err != nil {
		t.Fatalf("Tiny invalid: %v", err)
	}
}

func TestGenerateShapes(t *testing.T) {
	ds, err := Generate(Tiny(1))
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	if g.N() != 300 || g.F() != 16 || g.NumClasses != 4 {
		t.Fatalf("shapes N=%d F=%d C=%d", g.N(), g.F(), g.NumClasses)
	}
	if len(ds.Split.Train)+len(ds.Split.Val)+len(ds.Split.Test) != g.N() {
		t.Fatal("split does not partition nodes")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Tiny(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Tiny(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.Adj.NNZ() != b.Graph.Adj.NNZ() {
		t.Fatal("edge counts differ across identical seeds")
	}
	for i := range a.Graph.Adj.Col {
		if a.Graph.Adj.Col[i] != b.Graph.Adj.Col[i] {
			t.Fatal("edges differ across identical seeds")
		}
	}
	for i := range a.Graph.Features.Data {
		if a.Graph.Features.Data[i] != b.Graph.Features.Data[i] {
			t.Fatal("features differ across identical seeds")
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(Tiny(1))
	b, _ := Generate(Tiny(2))
	same := true
	for i := range a.Graph.Features.Data {
		if a.Graph.Features.Data[i] != b.Graph.Features.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical features")
	}
}

func TestAverageDegreeNearTarget(t *testing.T) {
	cfg := Tiny(3)
	cfg.N = 2000
	cfg.AvgDegree = 10
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(2*ds.Graph.M()) / float64(ds.Graph.N())
	// dedup removes some sampled pairs; expect within 30% of the target
	if avg < 6 || avg > 11 {
		t.Fatalf("average degree %v far from target 10", avg)
	}
}

func TestHomophilyMeasured(t *testing.T) {
	cfg := Tiny(4)
	cfg.N = 2000
	cfg.Homophily = 0.8
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	intra, total := 0, 0
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Adj.RowIndices(v) {
			total++
			if g.Labels[u] == g.Labels[v] {
				intra++
			}
		}
	}
	frac := float64(intra) / float64(total)
	// homophily 0.8 with 4 classes: expected intra ≈ 0.8 + 0.2/4 = 0.85
	if frac < 0.7 {
		t.Fatalf("intra-class edge fraction %v too low for homophily 0.8", frac)
	}
	// and a low-homophily graph must measure lower
	cfg2 := cfg
	cfg2.Homophily = 0.0
	ds2, _ := Generate(cfg2)
	intra2, total2 := 0, 0
	for v := 0; v < ds2.Graph.N(); v++ {
		for _, u := range ds2.Graph.Adj.RowIndices(v) {
			total2++
			if ds2.Graph.Labels[u] == ds2.Graph.Labels[v] {
				intra2++
			}
		}
	}
	if float64(intra2)/float64(total2) >= frac {
		t.Fatal("homophily knob has no effect")
	}
}

func TestDegreeHeavyTail(t *testing.T) {
	cfg := Tiny(5)
	cfg.N = 3000
	cfg.AvgDegree = 10
	cfg.PowerLaw = 2.0
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deg := ds.Graph.Adj.Degrees()
	sorted := append([]float64(nil), deg...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	maxDeg := sorted[len(sorted)-1]
	if maxDeg < 4*median {
		t.Fatalf("degree distribution not heavy-tailed: max %v median %v", maxDeg, median)
	}
}

func TestFeaturesCarryClassSignal(t *testing.T) {
	ds, err := Generate(Tiny(6))
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	// class centroids should be better separated than noise: mean intra-class
	// distance to own centroid < mean distance to other centroids
	f := g.F()
	centroids := make([][]float64, g.NumClasses)
	counts := make([]int, g.NumClasses)
	for c := range centroids {
		centroids[c] = make([]float64, f)
	}
	for i, y := range g.Labels {
		row := g.Features.Row(i)
		for j, v := range row {
			centroids[y][j] += v
		}
		counts[y]++
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	var own, other float64
	var ownN, otherN int
	for i, y := range g.Labels {
		row := g.Features.Row(i)
		for c := range centroids {
			var d float64
			for j, v := range row {
				diff := v - centroids[c][j]
				d += diff * diff
			}
			if c == y {
				own += math.Sqrt(d)
				ownN++
			} else {
				other += math.Sqrt(d)
				otherN++
			}
		}
	}
	if own/float64(ownN) >= other/float64(otherN) {
		t.Fatal("features carry no class signal")
	}
}

func TestPresetsValidateAndOrdering(t *testing.T) {
	ps := []Config{FlickrLike(1), ArxivLike(1), ProductsLike(1)}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	// products-like must be the largest and densest, mirroring Table II
	if !(ps[2].N > ps[1].N && ps[1].N > ps[0].N) {
		t.Fatal("size ordering broken")
	}
	if !(ps[2].AvgDegree > ps[0].AvgDegree) {
		t.Fatal("density ordering broken")
	}
}

func TestNoSelfLoopsOrDuplicates(t *testing.T) {
	ds, err := Generate(Tiny(7))
	if err != nil {
		t.Fatal(err)
	}
	adj := ds.Graph.Adj
	for i := 0; i < adj.Rows; i++ {
		cols := adj.RowIndices(i)
		for k, c := range cols {
			if int(c) == i {
				t.Fatalf("self loop at %d", i)
			}
			if k > 0 && cols[k-1] == c {
				t.Fatalf("duplicate edge %d-%d", i, c)
			}
		}
	}
}
