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

// StudentConfig is the training schedule every distilled student shares.
type StudentConfig struct {
	// Hidden sizes; the paper widens the student 4–8× on the larger datasets.
	Hidden  []int
	Dropout float64
	Epochs  int
	LR      float64
	// Temperature and Lambda weight the KD loss exactly as in Eq. 17.
	Temperature float64
	Lambda      float64
	Patience    int
	Seed        int64
}

// defaultStudent is the schedule the paper's students train with at our
// scale.
func defaultStudent() StudentConfig {
	return StudentConfig{Hidden: []int{128}, Dropout: 0.1, Epochs: 150, LR: 0.01,
		Temperature: 1.5, Lambda: 0.7, Patience: 25, Seed: 1}
}

// distill fits params against the teacher by Eq. 17 over the training rows
// (hard labels on V_l only) under cfg, decaying the weights by 1e-4: logits
// builds the student's TrainIdx logits on the binding, and predictVal's
// accuracy over ValIdx early-stops the fit.
func (td *TeacherData) distill(params []*nn.Param, cfg StudentConfig,
	logits func(b *nn.Binding) *tensor.Node, predictVal func() []int) {

	labels := td.Ind.Graph.Labels
	nn.FitDistilled(params,
		nn.TrainConfig{Epochs: cfg.Epochs, LR: cfg.LR, WeightDecay: 1e-4, Patience: cfg.Patience},
		nn.Distillation{
			Soft:       td.SoftTargets(td.TrainIdx, cfg.Temperature),
			LabeledPos: core.LabeledPositions(td.TrainIdx, td.LabeledIdx),
			Labels:     nn.GatherLabels(labels, td.LabeledIdx),
			Temp:       cfg.Temperature,
			Lambda:     cfg.Lambda,
		},
		logits, nn.AccuracyScore(predictVal, nn.GatherLabels(labels, td.ValIdx)))
}

// inferBatches is every baseline's batch loop: infer runs on each batch of
// targets in turn (one batch when batchSize ≤ 0), and its result is timed,
// counted and merged in order.
func inferBatches(targets []int, batchSize int, infer func(batch []int) *core.Result) *core.Result {
	agg := &core.Result{}
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
		agg.Merge(res)
	}
	return agg
}

// fixedDepthInfer runs the vanilla inductive pipeline shared by graph-based
// baselines: extract supporting balls per hop, propagate to depth k, then
// hand the per-depth stack (rows = batch targets) to classify, which
// returns predictions plus its classification MAC count. The k propagated
// matrices are allocated once: a batch reads only rows it wrote itself.
func fixedDepthInfer(g *graph.Graph, adj *sparse.Normalized, k int, targets []int, batchSize int,
	classify func(stack []*mat.Matrix) ([]int, int)) *core.Result {

	f := g.F()
	feats := make([]*mat.Matrix, k+1)
	feats[0] = g.Features
	for l := 1; l <= k; l++ {
		feats[l] = mat.New(g.N(), f)
	}
	return inferBatches(targets, batchSize, func(batch []int) *core.Result {
		res := &core.Result{}
		for l := 1; l <= k; l++ {
			rows := graph.Ball(g.Adj, batch, k-l)
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
