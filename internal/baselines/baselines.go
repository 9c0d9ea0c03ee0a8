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
	"repro/internal/scalable"
	"repro/internal/sparse"
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
	r.MACs = addMACs(r.MACs, o.MACs)
	r.TotalTime += o.TotalTime
	r.FPTime += o.FPTime
	r.NumTargets += o.NumTargets
}

func addMACs(a, b core.MACBreakdown) core.MACBreakdown {
	a.Stationary += b.Stationary
	a.Propagation += b.Propagation
	a.Decision += b.Decision
	a.Combine += b.Combine
	a.Classification += b.Classification
	return a
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
	adj := sparse.NewNormalized(tg.Adj, teacher.Gamma, sparse.LoopedDegrees(tg.Adj))
	feats := scalable.Propagate(adj, tg.Features, teacher.K)
	input := teacher.Combiner.Combine(feats, teacher.K)
	trainIdx := localIndices(ind, split.Train)
	return &TeacherData{
		Teacher:       teacher,
		Ind:           ind,
		TrainIdx:      trainIdx,
		LabeledIdx:    trainIdx,
		ValIdx:        localIndices(ind, split.Val),
		Feats:         feats,
		TeacherLogits: teacher.Classifiers[teacher.K].Logits(input),
	}
}

// SetLabeledFrac subsamples the labeled set V_l with the same policy the
// NAI trainer uses, so baselines and NAI see identical supervision.
func (td *TeacherData) SetLabeledFrac(frac float64, seed int64) {
	td.LabeledIdx = core.SubsampleLabeled(td.TrainIdx, frac, seed)
}

// labeledPositions maps labeled nodes to their rows within TrainIdx-gathered
// matrices.
func (td *TeacherData) labeledPositions() []int {
	pos := make(map[int]int, len(td.TrainIdx))
	for p, v := range td.TrainIdx {
		pos[v] = p
	}
	out := make([]int, len(td.LabeledIdx))
	for i, v := range td.LabeledIdx {
		out[i] = pos[v]
	}
	return out
}

// SoftTargets returns the teacher's temperature-T probabilities over rows.
func (td *TeacherData) SoftTargets(rows []int, temp float64) *mat.Matrix {
	return mat.SoftmaxRows(mat.Scale(1/temp, td.TeacherLogits.GatherRows(rows)))
}

func localIndices(ind *graph.Induced, global []int) []int {
	out := make([]int, len(global))
	for i, v := range global {
		out[i] = ind.ToLocal[v]
	}
	return out
}

func gatherLabels(labels []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = labels[v]
	}
	return out
}

// fixedDepthInfer runs the vanilla inductive pipeline shared by graph-based
// baselines: extract supporting balls per hop, propagate to depth k, then
// hand the per-depth stack (rows = batch targets) to classify, which
// returns predictions plus its classification MAC count.
func fixedDepthInfer(g *graph.Graph, adj *sparse.Normalized, k int, targets []int, batchSize int,
	classify func(stack []*mat.Matrix) ([]int, int)) *Result {

	agg := &Result{}
	if batchSize <= 0 {
		batchSize = len(targets)
	}
	if len(targets) == 0 {
		return agg
	}
	f := g.F()
	for _, batch := range graph.Batches(targets, batchSize) {
		res := &Result{NumTargets: len(batch)}
		start := time.Now()
		feats := make([]*mat.Matrix, k+1)
		feats[0] = g.Features
		var fpTime time.Duration
		for l := 1; l <= k; l++ {
			rows := graph.Ball(g.Adj, batch, k-l)
			feats[l] = mat.New(g.N(), f)
			fpStart := time.Now()
			res.MACs.Propagation += sparse.MulNormalizedRowsInto(adj, rows, rows, nil, feats[l-1].Data, nil, f, feats[l].Data)
			fpTime += time.Since(fpStart)
		}
		stack := make([]*mat.Matrix, k+1)
		for j := 0; j <= k; j++ {
			stack[j] = feats[j].GatherRows(batch)
		}
		pred, clfMACs := classify(stack)
		res.Pred = pred
		res.MACs.Classification += clfMACs
		res.TotalTime = time.Since(start)
		res.FPTime = fpTime
		agg.merge(res)
	}
	return agg
}
