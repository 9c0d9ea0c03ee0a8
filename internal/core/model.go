package core

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/scalable"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Model is a trained NAI system: a Scalable-GNN combiner, one classifier
// per propagation depth 1..K (enhanced by Inception Distillation), the
// stationary-state parameters of the training graph, and — for NAP_g —
// a trained gate per depth 1..K−1.
type Model struct {
	K          int
	Gamma      float64
	NumClasses int
	FeatureDim int

	Combiner scalable.Combiner
	// Classifiers[l] predicts depth-l features for l = 1..K; index 0 is nil.
	Classifiers []*nn.MLP
	// Gates[l] controls early exit at depth l for l = 1..K−1; nil without NAP_g.
	Gates []*Gate
}

// TrainOptions configures the full NAI training pipeline of Fig. 2:
// feature propagation, base-classifier training, Single-Scale Distillation,
// Multi-Scale Distillation and (optionally) gate training.
type TrainOptions struct {
	K       int
	Gamma   float64
	Model   string // "sgc", "sign", "s2gc", "gamlp"
	Hidden  []int  // classifier hidden sizes; empty = linear classifier
	Dropout float64

	// LabeledFrac is the fraction of training nodes that carry labels
	// (the paper's V_l ⊆ V_train): cross-entropy terms use only labeled
	// nodes while distillation uses every training node. 0 or 1 means
	// fully labeled.
	LabeledFrac float64

	Base nn.TrainConfig // base classifier (and combiner) training

	// Inception Distillation (Table III: T_single, λ_single, T_multi, λ_multi, r).
	SingleT       float64
	SingleLambda  float64
	MultiT        float64
	MultiLambda   float64
	EnsembleR     int
	DistillEpochs int
	DistillLR     float64
	// DisableSingleScale / DisableMultiScale support the Table VIII ablation.
	DisableSingleScale bool
	DisableMultiScale  bool
	// DisableDistillation skips both stages and trains every classifier
	// with plain cross-entropy ("NAI w/o ID").
	DisableDistillation bool

	// Gate training (NAP_g).
	TrainGates bool
	GateEpochs int
	GateLR     float64
	GateTau    float64 // Gumbel-softmax temperature

	Seed int64
}

// DefaultTrainOptions mirrors the paper's SGC hyper-parameters (Table III)
// scaled to the synthetic datasets.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		K:       5,
		Gamma:   sparse.GammaSymmetric,
		Model:   "sgc",
		Hidden:  []int{64},
		Dropout: 0.1,
		Base:    nn.TrainConfig{Epochs: 150, LR: 0.01, WeightDecay: 1e-4, Patience: 25, Seed: 1},

		SingleT:       1.1,
		SingleLambda:  0.3,
		MultiT:        1.5,
		MultiLambda:   0.8,
		EnsembleR:     2,
		DistillEpochs: 120,
		DistillLR:     0.01,

		TrainGates: true,
		GateEpochs: 60,
		GateLR:     0.01,
		GateTau:    1.0,

		Seed: 1,
	}
}

func (o TrainOptions) validate() error {
	switch {
	case o.K < 1:
		return fmt.Errorf("core: K must be ≥ 1, got %d", o.K)
	case o.Gamma < 0 || o.Gamma > 1:
		return fmt.Errorf("core: gamma %v outside [0,1]", o.Gamma)
	case o.EnsembleR < 1 || o.EnsembleR > o.K:
		return fmt.Errorf("core: ensemble size r=%d outside [1,%d]", o.EnsembleR, o.K)
	case o.SingleLambda < 0 || o.SingleLambda > 1 || o.MultiLambda < 0 || o.MultiLambda > 1:
		return fmt.Errorf("core: λ outside [0,1]")
	case o.SingleT <= 0 || o.MultiT <= 0:
		return fmt.Errorf("core: temperature must be positive")
	}
	return nil
}

// Train runs the full pipeline on the inductive training graph (the
// subgraph induced by split.Train ∪ split.Val — test nodes stay unseen).
func Train(g *graph.Graph, split graph.Split, opt TrainOptions) (*Model, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Observed graph: train ∪ val nodes with their induced edges.
	observed := append(append([]int(nil), split.Train...), split.Val...)
	ind := g.Induce(observed)
	tg := ind.Graph
	trainIdx := ind.Local(split.Train)
	valIdx := ind.Local(split.Val)
	labeledIdx := SubsampleLabeled(trainIdx, opt.LabeledFrac, opt.Seed)

	adj := sparse.NewNormalized(tg.Adj, opt.Gamma)
	feats := scalable.Propagate(adj, tg.Features, opt.K)

	comb, err := scalable.NewCombiner(opt.Model, tg.F(), opt.K, rng)
	if err != nil {
		return nil, err
	}

	m := &Model{
		K:           opt.K,
		Gamma:       opt.Gamma,
		NumClasses:  g.NumClasses,
		FeatureDim:  g.F(),
		Combiner:    comb,
		Classifiers: make([]*nn.MLP, opt.K+1),
	}
	for l := 1; l <= opt.K; l++ {
		m.Classifiers[l] = nn.NewMLP(fmt.Sprintf("f%d", l),
			comb.InputDim(l, tg.F()), opt.Hidden, g.NumClasses, opt.Dropout, rng)
	}

	// Step 2 (Fig. 2): train the deepest classifier (and combiner) with CE
	// over the labeled nodes.
	trainDepthClassifier(comb, m.Classifiers[opt.K], feats, opt.K,
		tg.Labels, labeledIdx, valIdx, opt.Base, rng)

	// Freeze the combiner and materialize classifier inputs per depth.
	inputs := make([]*mat.Matrix, opt.K+1)
	for l := 1; l <= opt.K; l++ {
		inputs[l] = comb.Combine(feats, l)
	}

	d := distiller{model: m, opt: opt, inputs: inputs,
		labels: tg.Labels, trainIdx: trainIdx, labeledIdx: labeledIdx, valIdx: valIdx}
	if opt.DisableDistillation || opt.DisableSingleScale {
		// Ablation "NAI w/o ID" gives every shallow classifier plain CE;
		// without single-scale distillation the students still need that
		// starting point.
		for l := 1; l < opt.K; l++ {
			nn.TrainClassifier(m.Classifiers[l], inputs[l], tg.Labels, labeledIdx, valIdx,
				withSeed(opt.Base, opt.Seed+int64(l)))
		}
	} else {
		d.singleScale(rand.New(rand.NewSource(opt.Seed + 101)))
	}
	if !opt.DisableDistillation && !opt.DisableMultiScale && opt.K > 1 {
		d.multiScale(rand.New(rand.NewSource(opt.Seed + 202)))
	}

	if opt.TrainGates && opt.K > 1 {
		stationary := ComputeStationary(tg.Adj, tg.Features, opt.Gamma)
		// Gates are trained on validation rows when available: the
		// classifiers overfit their own training rows, so the training-row
		// depth-quality signal would teach gates to exit far too early.
		gateRows := valIdx
		if len(gateRows) == 0 {
			gateRows = trainIdx
		}
		m.Gates = TrainGates(m, feats, inputs, stationary, tg.Labels, gateRows, GateTrainConfig{
			Epochs: opt.GateEpochs,
			LR:     opt.GateLR,
			Tau:    opt.GateTau,
			Seed:   opt.Seed + 303,
		})
	}
	return m, nil
}

// trainDepthClassifier fits one classifier (plus the combiner's depth-l
// parameters, e.g. GAMLP attention) with cross-entropy and early stopping.
func trainDepthClassifier(comb scalable.Combiner, clf *nn.MLP, feats []*mat.Matrix, l int,
	labels []int, trainIdx, valIdx []int, cfg nn.TrainConfig, rng *rand.Rand) {

	params := append(append([]*nn.Param(nil), clf.Params()...), comb.Params(l)...)
	featsTrain := gatherStack(feats, trainIdx, l)
	featsVal := gatherStack(feats, valIdx, l)
	yTrain := nn.GatherLabels(labels, trainIdx)
	nn.Fit(params, cfg, func(b *nn.Binding) *tensor.Node {
		input := comb.CombineNode(b, constStack(b, featsTrain), l)
		return tensor.CrossEntropyLabels(clf.Forward(b, input, true, rng), yTrain)
	}, nn.AccuracyScore(func() []int { return clf.Predict(comb.Combine(featsVal, l)) },
		nn.GatherLabels(labels, valIdx)))
}

// SubsampleLabeled deterministically selects frac of the node ids as the
// labeled set V_l (frac ≤ 0 or ≥ 1 returns all of them).
func SubsampleLabeled(idx []int, frac float64, seed int64) []int {
	if frac <= 0 || frac >= 1 {
		return idx
	}
	shuffled := append([]int(nil), idx...)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	n := int(float64(len(shuffled)) * frac)
	if n < 1 {
		n = 1
	}
	return shuffled[:n]
}

// LabeledPositions maps each labeled node to its row inside matrices
// gathered over trainIdx. It panics on a labeled node outside trainIdx.
func LabeledPositions(trainIdx, labeledIdx []int) []int {
	pos := make(map[int]int, len(trainIdx))
	for p, v := range trainIdx {
		pos[v] = p
	}
	out := make([]int, len(labeledIdx))
	for i, v := range labeledIdx {
		p, ok := pos[v]
		if !ok {
			panic(fmt.Sprintf("core: labeled node %d outside the training set", v))
		}
		out[i] = p
	}
	return out
}

// --- helpers ---

func gatherStack(feats []*mat.Matrix, idx []int, l int) []*mat.Matrix {
	out := make([]*mat.Matrix, l+1)
	for j := 0; j <= l; j++ {
		out[j] = feats[j].GatherRows(idx)
	}
	return out
}

func constStack(b *nn.Binding, feats []*mat.Matrix) []*tensor.Node {
	out := make([]*tensor.Node, len(feats))
	for j, f := range feats {
		out[j] = b.Const(f)
	}
	return out
}

func withSeed(cfg nn.TrainConfig, seed int64) nn.TrainConfig {
	cfg.Seed = seed
	return cfg
}
