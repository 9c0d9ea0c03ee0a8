package baselines

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// Shared trained teacher for all baseline tests (training is the slow part).
var (
	setupOnce sync.Once
	testDS    *synth.Dataset
	teacher   *core.Model
	teachData *TeacherData
)

func setup(t *testing.T) (*synth.Dataset, *core.Model, *TeacherData) {
	t.Helper()
	setupOnce.Do(func() {
		ds, err := synth.Generate(synth.Tiny(21))
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		opt := core.DefaultTrainOptions()
		opt.K = 3
		opt.Hidden = []int{16}
		opt.Base = nn.TrainConfig{Epochs: 60, LR: 0.02, WeightDecay: 1e-4, Patience: 15, Seed: 1}
		opt.DistillEpochs = 30
		opt.TrainGates = false
		m, err := core.Train(ds.Graph, ds.Split, opt)
		if err != nil {
			t.Fatalf("train teacher: %v", err)
		}
		testDS, teacher = ds, m
		teachData = PrepareTeacher(ds.Graph, ds.Split, m)
	})
	return testDS, teacher, teachData
}

func chanceAcc(ds *synth.Dataset) float64 { return 1 / float64(ds.Graph.NumClasses) }

func accOn(ds *synth.Dataset, targets, pred []int) float64 {
	correct := 0
	for i, v := range targets {
		if pred[i] == ds.Graph.Labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(targets))
}

func TestPrepareTeacher(t *testing.T) {
	ds, m, td := setup(t)
	if td.TeacherLogits.Rows != td.Ind.Graph.N() {
		t.Fatal("teacher logits row count")
	}
	if td.TeacherLogits.Cols != ds.Graph.NumClasses {
		t.Fatal("teacher logits class count")
	}
	if len(td.Feats) != m.K+1 {
		t.Fatal("feature stack depth")
	}
	soft := td.SoftTargets(td.TrainIdx, 2)
	for _, s := range soft.RowSums() {
		if math.Abs(s-1) > 1e-9 {
			t.Fatal("soft targets not normalized")
		}
	}
}

func TestGLNNTrainsAndInfers(t *testing.T) {
	ds, _, td := setup(t)
	cfg := DefaultGLNNConfig()
	cfg.Epochs = 60
	cfg.Hidden = []int{32}
	m := TrainGLNN(td, cfg)
	res := m.Infer(ds.Graph, ds.Split.Test, 0)
	if len(res.Pred) != len(ds.Split.Test) {
		t.Fatal("prediction count")
	}
	if acc := accOn(ds, ds.Split.Test, res.Pred); acc < 1.3*chanceAcc(ds) {
		t.Fatalf("GLNN accuracy %v too low", acc)
	}
	// GLNN does no feature processing at all
	if res.MACs.Propagation != 0 || res.FPTime != 0 {
		t.Fatal("GLNN charged FP costs")
	}
	if res.MACs.Classification == 0 {
		t.Fatal("GLNN classification MACs missing")
	}
}

// TestLabeledNodeOutsideTrainIdxPanics mirrors core's
// TestLabeledPositionsPanicsOnForeignNode: a student must not silently train
// a labeled node's hard term against some other training row.
func TestLabeledNodeOutsideTrainIdxPanics(t *testing.T) {
	_, _, td := setup(t)
	bad := *td
	bad.LabeledIdx = []int{td.ValIdx[0]}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := DefaultGLNNConfig()
	cfg.Epochs = 1
	TrainGLNN(&bad, cfg)
}

func TestGLNNBatchingConsistent(t *testing.T) {
	ds, _, td := setup(t)
	cfg := DefaultGLNNConfig()
	cfg.Epochs = 30
	cfg.Hidden = []int{16}
	m := TrainGLNN(td, cfg)
	a := m.Infer(ds.Graph, ds.Split.Test, 0)
	b := m.Infer(ds.Graph, ds.Split.Test, 13)
	for i := range a.Pred {
		if a.Pred[i] != b.Pred[i] {
			t.Fatal("batching changed GLNN predictions")
		}
	}
	if a.MACs.Classification != b.MACs.Classification {
		t.Fatal("batching changed GLNN MACs")
	}
}

func TestNOSMOGTrainsAndInfers(t *testing.T) {
	ds, _, td := setup(t)
	cfg := DefaultNOSMOGConfig()
	cfg.Epochs = 60
	cfg.Hidden = []int{32}
	cfg.PosDim = 8
	m := TrainNOSMOG(td, cfg)
	res := m.Infer(ds.Graph, ds.Split.Test, 0)
	if acc := accOn(ds, ds.Split.Test, res.Pred); acc < 1.3*chanceAcc(ds) {
		t.Fatalf("NOSMOG accuracy %v too low", acc)
	}
	// NOSMOG pays a small 1-hop aggregation cost, unlike GLNN
	if res.MACs.Propagation == 0 {
		t.Fatal("NOSMOG position aggregation not charged")
	}
}

func TestPositionFeatures(t *testing.T) {
	// path 0-1-2-3 with anchor {0}: landing probability decays with distance
	adj := sparse.FromEdges(4, []int{0, 1, 2}, []int{1, 2, 3}, true)
	p := PositionFeatures(adj, []int{0}, 2)
	if p.Rows != 4 || p.Cols != 1 {
		t.Fatalf("shape %dx%d", p.Rows, p.Cols)
	}
	if !(p.At(0, 0) > p.At(3, 0)) {
		t.Fatalf("anchor proximity not reflected: %v vs %v", p.At(0, 0), p.At(3, 0))
	}
	// rows are sub-probabilities in [0,1]
	for _, v := range p.Data {
		if v < 0 || v > 1 {
			t.Fatalf("position value %v outside [0,1]", v)
		}
	}
}

func TestTopDegreeAnchors(t *testing.T) {
	// star: node 0 has the highest degree
	adj := sparse.FromEdges(5, []int{0, 0, 0, 0}, []int{1, 2, 3, 4}, true)
	anchors := topDegreeAnchors(adj, 2)
	if anchors[0] != 0 {
		t.Fatalf("hub not first anchor: %v", anchors)
	}
	if len(anchors) != 2 {
		t.Fatalf("anchor count %d", len(anchors))
	}
	if got := topDegreeAnchors(adj, 99); len(got) != 5 {
		t.Fatal("anchor count should cap at n")
	}
}

func TestTinyGNNTrainsAndInfers(t *testing.T) {
	ds, _, td := setup(t)
	cfg := DefaultTinyGNNConfig()
	cfg.Epochs = 50
	cfg.AttnDim = 16
	cfg.Hidden = []int{16}
	m := TrainTinyGNN(td, cfg)
	res := m.Infer(ds.Graph, ds.Split.Test, 0)
	if acc := accOn(ds, ds.Split.Test, res.Pred); acc < 1.3*chanceAcc(ds) {
		t.Fatalf("TinyGNN accuracy %v too low", acc)
	}
	wantFP := len(ds.Split.Test) * m.attentionMACsPerRow(ds.Graph.F())
	if res.MACs.Propagation != wantFP {
		t.Fatalf("TinyGNN FP MACs %d want %d", res.MACs.Propagation, wantFP)
	}
}

func TestTinyGNNAttentionEvalMatchesForward(t *testing.T) {
	ds, _, td := setup(t)
	rng := rand.New(rand.NewSource(5))
	tg := td.Ind.Graph
	m := &TinyGNN{
		Wq:      nn.NewParam("q", mat.Randn(tg.F(), 8, 0.2, rng)),
		Wk:      nn.NewParam("k", mat.Randn(tg.F(), 8, 0.2, rng)),
		Wv:      nn.NewParam("v", mat.Randn(tg.F(), 8, 0.2, rng)),
		Clf:     nn.NewMLP("c", 8, nil, ds.Graph.NumClasses, 0, rng),
		Peers:   3,
		AttnDim: 8,
	}
	nodes := td.TrainIdx[:10]
	peers := samplePeers(tg.Adj, nodes, 3, rng)
	b := nn.Bind()
	want := m.forward(b, tg.Features, nodes, peers, false, rng)
	got := m.Clf.Logits(m.attentionEval(tg.Features, nodes, peers))
	if !mat.ApproxEqual(got, want.Value, 1e-9) {
		t.Fatal("attentionEval differs from tape forward")
	}
}

func TestSamplePeersValid(t *testing.T) {
	adj := sparse.FromEdges(4, []int{0, 1, 2}, []int{1, 2, 3}, true)
	rng := rand.New(rand.NewSource(1))
	peers := samplePeers(adj, []int{0, 1, 3}, 4, rng)
	nodes := []int{0, 1, 3}
	for i, list := range peers {
		if len(list) != 4 {
			t.Fatalf("peer count %d", len(list))
		}
		v := nodes[i]
		for _, p := range list {
			if p != v && adj.At(v, p) == 0 {
				t.Fatalf("peer %d of node %d not a neighbor", p, v)
			}
		}
	}
}

func TestSamplePeersIsolatedNode(t *testing.T) {
	adj := sparse.FromEdges(3, []int{0}, []int{1}, true) // node 2 isolated
	peers := samplePeers(adj, []int{2}, 3, rand.New(rand.NewSource(1)))
	for _, p := range peers[0] {
		if p != 2 {
			t.Fatal("isolated node must self-attend")
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := mat.Randn(1, 100, 3, rng).Data
	q, scale := kernel.Quantize(vals)
	maxErr := 0.0
	for i, v := range vals {
		err := math.Abs(float64(q[i])*scale - v)
		if err > maxErr {
			maxErr = err
		}
	}
	if maxErr > scale/2+1e-12 {
		t.Fatalf("quantization error %v exceeds half-step %v", maxErr, scale/2)
	}
}

func TestQuantizeAllZeros(t *testing.T) {
	q, scale := kernel.Quantize([]float64{0, 0, 0})
	if scale != 1 {
		t.Fatalf("zero-tensor scale %v", scale)
	}
	for _, v := range q {
		if v != 0 {
			t.Fatal("zero quantizes to nonzero")
		}
	}
}

func TestQuantizedLinearApproximatesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := mat.Randn(6, 4, 0.5, rng)
	bias := []float64{0.1, -0.2, 0.3, 0}
	ql := NewQuantizedLinear(w, bias)
	x := mat.Randn(5, 6, 1, rng)
	got := ql.Forward(x)
	want := mat.AddRowVec(mat.MatMul(x, w), bias)
	// int8 dynamic quantization: expect ~1% relative error
	diff := mat.Sub(got, want).FrobeniusNorm() / want.FrobeniusNorm()
	if diff > 0.05 {
		t.Fatalf("quantized output relative error %v too high", diff)
	}
}

func TestQuantizedMLPAgreesMostly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := nn.NewMLP("clf", 10, []int{16}, 4, 0, rng)
	q := QuantizeMLP(m)
	x := mat.Randn(200, 10, 1, rng)
	pf := m.Predict(x)
	pq := q.Predict(x)
	agree := 0
	for i := range pf {
		if pf[i] == pq[i] {
			agree++
		}
	}
	if float64(agree)/float64(len(pf)) < 0.9 {
		t.Fatalf("quantized model agrees only %d/%d", agree, len(pf))
	}
	if q.MACsPerRow() != m.MACsPerRow() {
		t.Fatal("quantization must not change MAC count")
	}
}

func TestQuantizedBaselineInfer(t *testing.T) {
	ds, m, _ := setup(t)
	qb := NewQuantized(m)
	res := qb.Infer(ds.Graph, ds.Split.Test, 0)
	if acc := accOn(ds, ds.Split.Test, res.Pred); acc < 1.3*chanceAcc(ds) {
		t.Fatalf("quantized accuracy %v too low", acc)
	}
	// same propagation cost as the vanilla model
	dep, err := core.NewDeployment(m, ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := dep.Infer(ds.Split.Test, core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K})
	if err != nil {
		t.Fatal(err)
	}
	if res.MACs.Propagation != vres.MACs.Propagation {
		t.Fatalf("quantized propagation MACs %d != vanilla %d",
			res.MACs.Propagation, vres.MACs.Propagation)
	}
	if res.MACs.Classification != vres.MACs.Classification {
		t.Fatalf("quantized classification MACs %d != vanilla %d",
			res.MACs.Classification, vres.MACs.Classification)
	}
}

func TestQuantizedAccuracyCloseToFloat(t *testing.T) {
	ds, m, _ := setup(t)
	qb := NewQuantized(m)
	qres := qb.Infer(ds.Graph, ds.Split.Test, 0)
	dep, _ := core.NewDeployment(m, ds.Graph)
	fres, _ := dep.Infer(ds.Split.Test, core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: m.K})
	qacc := accOn(ds, ds.Split.Test, qres.Pred)
	facc := accOn(ds, ds.Split.Test, fres.Pred)
	if math.Abs(qacc-facc) > 0.1 {
		t.Fatalf("quantized accuracy %v far from float %v", qacc, facc)
	}
}

func TestEmptyTargetsAllBaselines(t *testing.T) {
	ds, m, td := setup(t)
	cfg := DefaultGLNNConfig()
	cfg.Epochs = 1
	glnn := TrainGLNN(td, cfg)
	if res := glnn.Infer(ds.Graph, nil, 10); res.NumTargets != 0 {
		t.Fatal("GLNN empty targets")
	}
	qb := NewQuantized(m)
	if res := qb.Infer(ds.Graph, nil, 10); res.NumTargets != 0 {
		t.Fatal("Quantized empty targets")
	}
}
