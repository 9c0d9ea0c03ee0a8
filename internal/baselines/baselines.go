// Package baselines implements the four inference-acceleration baselines
// the paper compares against (§IV-A): GLNN (distill to a plain MLP),
// NOSMOG (distill to an MLP with explicit position features), TinyGNN
// (single-layer GNN with a peer-aware self-attention module) and
// Quantization (INT8 classifier inference). Each baseline trains against a
// core.Model teacher and reports the same ACC / MACs / Time columns.
package baselines

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/scalable"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Result mirrors core.Result for baseline inference runs.
type Result struct {
	Pred       []int
	MACs       core.MACBreakdown
	TotalTime  time.Duration
	FPTime     time.Duration
	NumTargets int
}

func (r *Result) merge(o *Result) {
	r.Pred = append(r.Pred, o.Pred...)
	r.MACs.Add(o.MACs)
	r.TotalTime += o.TotalTime
	r.FPTime += o.FPTime
	r.NumTargets += o.NumTargets
}

// TeacherData packages the inductive training-graph artifacts every
// distillation baseline needs: the induced graph, local split indices, the
// propagated feature stack and the teacher's soft targets.
type TeacherData struct {
	Teacher  *core.Model
	Ind      *graph.Induced
	TrainIdx []int // local ids of split.Train in the induced graph
	// LabeledIdx is V_l ⊆ V_train: hard-label cross-entropy uses these,
	// distillation uses all of TrainIdx (defaults to TrainIdx).
	LabeledIdx []int
	ValIdx     []int         // local ids of split.Val
	Feats      []*mat.Matrix // propagated stack X^(0..K) on the training graph
	// TeacherLogits are the teacher's logits over all training-graph rows.
	TeacherLogits *mat.Matrix
}

// PrepareTeacher computes TeacherData for a trained model.
func PrepareTeacher(g *graph.Graph, split graph.Split, teacher *core.Model) *TeacherData {
	observed := append(append([]int(nil), split.Train...), split.Val...)
	ind := g.Induce(observed)
	tg := ind.Graph
	adj := sparse.NewNormalized(tg.Adj, teacher.Gamma)
	feats := scalable.Propagate(adj, tg.Features, teacher.K)
	input := teacher.Combiner.Combine(feats, teacher.K)
	trainIdx := ind.Local(split.Train)
	return &TeacherData{
		Teacher:       teacher,
		Ind:           ind,
		TrainIdx:      trainIdx,
		LabeledIdx:    trainIdx,
		ValIdx:        ind.Local(split.Val),
		Feats:         feats,
		TeacherLogits: teacher.Classifiers[teacher.K].Logits(input),
	}
}

// SetLabeledFrac subsamples the labeled set V_l with the same policy the
// NAI trainer uses, so baselines and NAI see identical supervision.
func (td *TeacherData) SetLabeledFrac(frac float64, seed int64) {
	td.LabeledIdx = core.SubsampleLabeled(td.TrainIdx, frac, seed)
}

// SoftTargets returns the teacher's temperature-T probabilities over rows.
func (td *TeacherData) SoftTargets(rows []int, temp float64) *mat.Matrix {
	return mat.SoftmaxRows(mat.Scale(1/temp, td.TeacherLogits.GatherRows(rows)))
}

// studentConfig is a student's training schedule; every student decays
// its weights by 1e-4.
func studentConfig(epochs int, lr float64, patience int) nn.TrainConfig {
	return nn.TrainConfig{Epochs: epochs, LR: lr, WeightDecay: 1e-4, Patience: patience}
}

// distill fits params against the teacher by Eq. 17 over the training rows
// (hard labels on V_l only): logits builds the student's TrainIdx logits on
// the binding, and predictVal's accuracy over ValIdx early-stops the fit.
func (td *TeacherData) distill(params []*nn.Param, cfg nn.TrainConfig, temp, lambda float64,
	logits func(b *nn.Binding) *tensor.Node, predictVal func() []int) {

	labels := td.Ind.Graph.Labels
	labeledPos := core.LabeledPositions(td.TrainIdx, td.LabeledIdx)
	yLabeled := nn.GatherLabels(labels, td.LabeledIdx)
	soft := td.SoftTargets(td.TrainIdx, temp)
	nn.Fit(params, cfg, func(b *nn.Binding) *tensor.Node {
		z := logits(b)
		return nn.DistillLoss(
			tensor.CrossEntropyLabels(tensor.GatherRows(z, labeledPos), yLabeled),
			tensor.SoftCrossEntropy(z, soft, temp), lambda, temp)
	}, nn.AccuracyScore(predictVal, nn.GatherLabels(labels, td.ValIdx)))
}

// inferBatches is every baseline's batch loop: infer runs on each batch of
// targets in turn (one batch when batchSize ≤ 0), and its result is timed,
// counted and merged in order.
func inferBatches(targets []int, batchSize int, infer func(batch []int) *Result) *Result {
	agg := &Result{}
	if len(targets) == 0 {
		return agg
	}
	if batchSize <= 0 {
		batchSize = len(targets)
	}
	for _, batch := range graph.Batches(targets, batchSize) {
		start := time.Now()
		res := infer(batch)
		res.TotalTime = time.Since(start)
		res.NumTargets = len(batch)
		agg.merge(res)
	}
	return agg
}

// fixedDepthInfer runs the vanilla inductive pipeline shared by graph-based
// baselines: extract supporting balls per hop, propagate to depth k, then
// hand the per-depth stack (rows = batch targets) to classify, which
// returns predictions plus its classification MAC count.
func fixedDepthInfer(g *graph.Graph, adj *sparse.Normalized, k int, targets []int, batchSize int,
	classify func(stack []*mat.Matrix) ([]int, int)) *Result {

	f := g.F()
	return inferBatches(targets, batchSize, func(batch []int) *Result {
		res := &Result{}
		feats := make([]*mat.Matrix, k+1)
		feats[0] = g.Features
		for l := 1; l <= k; l++ {
			rows := graph.Ball(g.Adj, batch, k-l)
			feats[l] = mat.New(g.N(), f)
			fpStart := time.Now()
			res.MACs.Propagation += sparse.MulNormalizedRowsInto(adj, rows, rows, nil, feats[l-1].Data, nil, f, feats[l].Data)
			res.FPTime += time.Since(fpStart)
		}
		stack := make([]*mat.Matrix, k+1)
		for j := 0; j <= k; j++ {
			stack[j] = feats[j].GatherRows(batch)
		}
		res.Pred, res.MACs.Classification = classify(stack)
		return res
	})
}
