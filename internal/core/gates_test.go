package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/scalable"
	"repro/internal/sparse"
)

func TestGateDecide(t *testing.T) {
	g := &Gate{W: nn.NewParam("g", mat.New(4, 2))}
	// W picks logit0 = x[0], logit1 = x[2] (first stationary coordinate)
	g.W.Value.Set(0, 0, 1)
	g.W.Value.Set(2, 1, 1)
	xl := mat.FromRows([][]float64{{5, 0}, {1, 0}})
	xinf := mat.FromRows([][]float64{{2, 0}, {3, 0}})
	got := g.Decide(xl, xinf)
	if !got[0] || got[1] {
		t.Fatalf("Decide = %v", got)
	}
}

func TestGateDecideShapePanics(t *testing.T) {
	g := NewGate("g", 2, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Decide(mat.New(2, 2), mat.New(3, 2))
}

func TestGateMACs(t *testing.T) {
	g := NewGate("g", 8, rand.New(rand.NewSource(2)))
	if got := g.MACsPerRow(); got != 32 { // 2f×2 = 16×2
		t.Fatalf("MACsPerRow = %d", got)
	}
}

func TestTrainGatesImprovesMixtureLoss(t *testing.T) {
	// Gate training must reduce the NLL of the depth-mixture prediction.
	ds := tinyData(t)
	m := trainedModel(t)

	// reconstruct the training-graph artifacts
	observed := append(append([]int(nil), ds.Split.Train...), ds.Split.Val...)
	ind := ds.Graph.Induce(observed)
	tg := ind.Graph
	adj := sparse.NewNormalized(tg.Adj, m.Gamma)
	feats := scalable.Propagate(adj, tg.Features, m.K)
	inputs := make([]*mat.Matrix, m.K+1)
	for l := 1; l <= m.K; l++ {
		inputs[l] = m.Combiner.Combine(feats, l)
	}
	st := ComputeStationary(tg.Adj, tg.Features, m.Gamma)
	trainIdx := ind.Local(ds.Split.Train)

	lossWith := func(gates []*Gate) float64 {
		// hard-decision mixture NLL over train rows
		xinf := st.Rows(trainIdx)
		var nll float64
		for i, li := range trainIdx {
			depth := m.K
			for l := 1; l < m.K; l++ {
				xl := feats[l].GatherRows([]int{li})
				xi := mat.FromData(1, xinf.Cols, append([]float64(nil), xinf.Row(i)...))
				if gates[l].Decide(xl, xi)[0] {
					depth = l
					break
				}
			}
			probs := mat.SoftmaxRows(m.Classifiers[depth].Logits(inputs[depth].GatherRows([]int{li})))
			p := probs.At(0, tg.Labels[li])
			if p < 1e-12 {
				p = 1e-12
			}
			nll -= logf(p)
		}
		return nll / float64(len(trainIdx))
	}

	rng := rand.New(rand.NewSource(9))
	untrained := make([]*Gate, m.K)
	for l := 1; l < m.K; l++ {
		untrained[l] = NewGate("u", tg.F(), rng)
	}
	trained := TrainGates(m, feats, inputs, st, tg.Labels, trainIdx, GateTrainConfig{
		Epochs: 40, LR: 0.02, Tau: 1, Seed: 7,
	})
	if lossWith(trained) > lossWith(untrained)+0.05 {
		t.Fatalf("gate training made mixture loss worse: %v vs %v",
			lossWith(trained), lossWith(untrained))
	}
}

func TestTrainGatesK1ReturnsNil(t *testing.T) {
	m := &Model{K: 1}
	if got := TrainGates(m, nil, nil, nil, nil, nil, GateTrainConfig{}); got != nil {
		t.Fatal("K=1 should not train gates")
	}
}

// trainGatesOnTiny runs TrainGates for the shared tiny model on the subgraph
// induced by the observed (train + validation) nodes, the way Train does; it
// also returns that subgraph's feature width.
func trainGatesOnTiny(t *testing.T, cfg GateTrainConfig) (gates []*Gate, f int) {
	t.Helper()
	ds := tinyData(t)
	m := trainedModel(t)
	observed := append(append([]int(nil), ds.Split.Train...), ds.Split.Val...)
	ind := ds.Graph.Induce(observed)
	tg := ind.Graph
	adj := sparse.NewNormalized(tg.Adj, m.Gamma)
	feats := scalable.Propagate(adj, tg.Features, m.K)
	inputs := make([]*mat.Matrix, m.K+1)
	for l := 1; l <= m.K; l++ {
		inputs[l] = m.Combiner.Combine(feats, l)
	}
	st := ComputeStationary(tg.Adj, tg.Features, m.Gamma)
	trainIdx := ind.Local(ds.Split.Train)
	return TrainGates(m, feats, inputs, st, tg.Labels, trainIdx, cfg), tg.F()
}

func TestTrainGatesDeterministic(t *testing.T) {
	cfg := GateTrainConfig{Epochs: 10, LR: 0.02, Tau: 1, Seed: 3}
	a, _ := trainGatesOnTiny(t, cfg)
	b, _ := trainGatesOnTiny(t, cfg)
	for l := 1; l < trainedModel(t).K; l++ {
		if !mat.Equal(a[l].W.Value, b[l].W.Value) {
			t.Fatal("gate training not deterministic")
		}
	}
}

func TestHardGumbelGatesTrain(t *testing.T) {
	gates, f := trainGatesOnTiny(t, GateTrainConfig{
		Epochs: 10, LR: 0.02, Tau: 1, HardGumbel: true, Seed: 5,
	})
	if gates == nil {
		t.Fatal("hard-Gumbel training returned no gates")
	}
	// weights must have moved from their init
	init := NewGate("ref", f, rand.New(rand.NewSource(5)))
	if mat.Equal(gates[1].W.Value, init.W.Value) {
		t.Fatal("gate weights unchanged")
	}
}

func logf(x float64) float64 { return math.Log(x) }
