package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/scalable"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// fastOptions returns training options scaled for unit tests.
func fastOptions(model string) TrainOptions {
	opt := DefaultTrainOptions()
	opt.Model = model
	opt.K = 3
	opt.Hidden = []int{16}
	opt.Base = nn.TrainConfig{Epochs: 60, LR: 0.02, WeightDecay: 1e-4, Patience: 15, Seed: 1}
	opt.DistillEpochs = 40
	opt.GateEpochs = 25
	opt.EnsembleR = 2
	return opt
}

// tinyDataset is memoized: several tests share one trained setting.
var (
	tinyOnce sync.Once
	tinyDS   *synth.Dataset
)

func tinyData(t *testing.T) *synth.Dataset {
	t.Helper()
	tinyOnce.Do(func() {
		ds, err := synth.Generate(synth.Tiny(11))
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		tinyDS = ds
	})
	return tinyDS
}

var (
	modelOnce sync.Once
	tinyModel *Model
)

func trainedModel(t *testing.T) *Model {
	t.Helper()
	ds := tinyData(t)
	modelOnce.Do(func() {
		m, err := Train(ds.Graph, ds.Split, fastOptions("sgc"))
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		tinyModel = m
	})
	return tinyModel
}

var (
	deepOnce  sync.Once
	deepModel *Model
)

// trainedDeepModel is trainedModel at K = 5: the operating points at TMax 4
// and 5 read the layers at depths 2 and 3, which no K = 3 model reaches.
func trainedDeepModel(t *testing.T) *Model {
	t.Helper()
	ds := tinyData(t)
	deepOnce.Do(func() {
		opt := fastOptions("sgc")
		opt.K = 5
		m, err := Train(ds.Graph, ds.Split, opt)
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		deepModel = m
	})
	return deepModel
}

func TestTrainOptionValidation(t *testing.T) {
	ds := tinyData(t)
	bad := fastOptions("sgc")
	bad.K = 0
	if _, err := Train(ds.Graph, ds.Split, bad); err == nil {
		t.Fatal("K=0 accepted")
	}
	bad = fastOptions("sgc")
	bad.Gamma = 2
	if _, err := Train(ds.Graph, ds.Split, bad); err == nil {
		t.Fatal("gamma=2 accepted")
	}
	bad = fastOptions("sgc")
	bad.EnsembleR = 99
	if _, err := Train(ds.Graph, ds.Split, bad); err == nil {
		t.Fatal("r>K accepted")
	}
	bad = fastOptions("nope")
	if _, err := Train(ds.Graph, ds.Split, bad); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestTrainProducesFullModel(t *testing.T) {
	m := trainedModel(t)
	if m.K != 3 {
		t.Fatalf("K = %d", m.K)
	}
	if m.Classifiers[0] != nil {
		t.Fatal("classifier 0 should be nil")
	}
	for l := 1; l <= m.K; l++ {
		if m.Classifiers[l] == nil {
			t.Fatalf("missing classifier %d", l)
		}
	}
	if m.Gates == nil || m.Gates[1] == nil || m.Gates[2] == nil {
		t.Fatal("gates missing")
	}
}

func TestTrainedModelBeatsChance(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	dep, err := NewDeployment(m, ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	acc := accuracyOn(ds.Graph, ds.Split.Test, res.Pred)
	chance := 1.0 / float64(ds.Graph.NumClasses)
	if acc < 2*chance {
		t.Fatalf("test accuracy %v barely above chance %v", acc, chance)
	}
}

func TestAllClassifierDepthsBeatChance(t *testing.T) {
	// Inception Distillation must leave every depth usable.
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	chance := 1.0 / float64(ds.Graph.NumClasses)
	for l := 1; l <= m.K; l++ {
		res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: l})
		if err != nil {
			t.Fatal(err)
		}
		acc := accuracyOn(ds.Graph, ds.Split.Test, res.Pred)
		if acc < 1.5*chance {
			t.Fatalf("depth-%d classifier accuracy %v too close to chance", l, acc)
		}
	}
}

func TestTrainAllBaseModels(t *testing.T) {
	ds := tinyData(t)
	for _, name := range []string{"sign", "s2gc", "gamlp"} {
		opt := fastOptions(name)
		opt.TrainGates = false // keep the test fast; gates are covered elsewhere
		m, err := Train(ds.Graph, ds.Split, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dep, err := NewDeployment(m, ds.Graph)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: m.K})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		acc := accuracyOn(ds.Graph, ds.Split.Test, res.Pred)
		if acc < 1.5/float64(ds.Graph.NumClasses) {
			t.Fatalf("%s accuracy %v too low", name, acc)
		}
	}
}

func TestDistillationAblationsRun(t *testing.T) {
	ds := tinyData(t)
	for _, mod := range []func(*TrainOptions){
		func(o *TrainOptions) { o.DisableDistillation = true },
		func(o *TrainOptions) { o.DisableSingleScale = true },
		func(o *TrainOptions) { o.DisableMultiScale = true },
	} {
		opt := fastOptions("sgc")
		opt.TrainGates = false
		mod(&opt)
		if _, err := Train(ds.Graph, ds.Split, opt); err != nil {
			t.Fatalf("ablation failed: %v", err)
		}
	}
}

// TestTrainDeterministic pins training as a pure function of its inputs:
// every stage (base classifier, both distillation stages, gates) draws its
// dropout and Gumbel samples from seeded generators, and training's products
// are par-split GEMMs whose bits must not depend on the worker count.
func TestTrainDeterministic(t *testing.T) {
	ds := tinyData(t)
	for _, name := range []string{"sgc", "sign", "s2gc", "gamlp"} {
		opt := fastOptions(name)
		opt.TrainGates = true
		opt.LabeledFrac = 0.5
		save := func() []byte {
			m, err := Train(ds.Graph, ds.Split, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return buf.Bytes()
		}
		first, second := save(), save()
		prev := runtime.GOMAXPROCS(1)
		serial := save()
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: two trainings saved different bytes", name)
		}
		if !bytes.Equal(first, serial) {
			t.Fatalf("%s: training at GOMAXPROCS 1 saved different bytes than at %d", name, prev)
		}
	}
}

func TestSIGNClassifierDims(t *testing.T) {
	ds := tinyData(t)
	opt := fastOptions("sign")
	opt.TrainGates = false
	opt.DisableMultiScale = true
	m, err := Train(ds.Graph, ds.Split, opt)
	if err != nil {
		t.Fatal(err)
	}
	f := ds.Graph.F()
	for l := 1; l <= m.K; l++ {
		if got := m.Classifiers[l].InputDim(); got != (l+1)*f {
			t.Fatalf("SIGN classifier %d input dim %d want %d", l, got, (l+1)*f)
		}
	}
}

func TestK1ModelTrains(t *testing.T) {
	// K=1 has no students and no gates; the pipeline must not break.
	ds := tinyData(t)
	opt := fastOptions("sgc")
	opt.K = 1
	opt.EnsembleR = 1
	m, err := Train(ds.Graph, ds.Split, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Gates != nil {
		t.Fatal("K=1 should have no gates")
	}
	dep, _ := NewDeployment(m, ds.Graph)
	res, err := dep.Infer(ds.Split.Test, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesPerDepth[1] != len(ds.Split.Test) {
		t.Fatal("all nodes should exit at depth 1")
	}
}

func TestDeploymentValidation(t *testing.T) {
	ds := tinyData(t)
	m := trainedModel(t)
	// wrong feature dim
	adj := sparse.FromEdges(3, []int{0}, []int{1}, true)
	g2, err := graph.New(adj, mat.New(3, 2), []int{0, 1, 0}, ds.Graph.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDeployment(m, g2); err == nil {
		t.Fatal("feature-dim mismatch accepted")
	}
}

func TestPropagateConsistencyWithScalable(t *testing.T) {
	// The training pipeline and inference engine must share propagation
	// semantics: X^{(l)} from scalable.Propagate on the full graph equals
	// inference buffers for a full-graph ball.
	ds := tinyData(t)
	m := trainedModel(t)
	dep, _ := NewDeployment(m, ds.Graph)
	norm := sparse.NewNormalized(ds.Graph.Adj, m.Gamma)
	feats := scalable.Propagate(norm, ds.Graph.Features, m.K)

	targets := ds.Split.Test[:20]
	res, err := dep.Infer(targets, InferenceOptions{Mode: ModeFixed, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	stack := make([]*mat.Matrix, m.K+1)
	for j := 0; j <= m.K; j++ {
		stack[j] = feats[j].GatherRows(targets)
	}
	input := m.Combiner.Combine(stack, m.K)
	want := m.Classifiers[m.K].Predict(input)
	for i := range targets {
		if res.Pred[i] != want[i] {
			t.Fatalf("prediction mismatch at %d: ball-based %d vs full %d", i, res.Pred[i], want[i])
		}
	}
}

func accuracyOn(g *graph.Graph, targets []int, pred []int) float64 {
	correct := 0
	for i, v := range targets {
		if pred[i] == g.Labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(targets))
}

var _ = rand.New // keep rand import if helpers change
