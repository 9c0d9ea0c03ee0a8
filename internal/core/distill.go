package core

import (
	"math/rand"
	"strconv"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// distiller carries the shared state of the two Inception-Distillation
// stages (§III-C): frozen per-depth classifier inputs, labels and splits.
// Following Eqs. 15–16, the distillation terms run over all of V_train
// (trainIdx) while the hard-label cross-entropy uses only V_l (labeledIdx).
type distiller struct {
	model      *Model
	opt        TrainOptions
	inputs     []*mat.Matrix // inputs[l] is the classifier input at depth l (training graph)
	labels     []int
	trainIdx   []int // V_train: distillation set
	labeledIdx []int // V_l ⊆ V_train: hard-label set
	valIdx     []int
}

// fitConfig is every student's training schedule: the distillation epochs
// and learning rate with the base classifier's weight decay and patience.
func (d *distiller) fitConfig() nn.TrainConfig {
	return nn.TrainConfig{Epochs: d.opt.DistillEpochs, LR: d.opt.DistillLR,
		WeightDecay: d.opt.Base.WeightDecay, Patience: d.opt.Base.Patience}
}

// singleScale distills the deepest classifier f^{(K)} into every shallower
// student separately (Eqs. 14–17):
//
//	L^{(l)}_single = (1−λ)·CE(student, y) + λ·T²·CE(student/T, teacher/T)
func (d *distiller) singleScale(rng *rand.Rand) {
	k := d.model.K
	teacher := d.model.Classifiers[k]
	target := nn.Distillation{
		Soft:       tempSoftmax(teacher.Logits(d.inputs[k].GatherRows(d.trainIdx)), d.opt.SingleT),
		LabeledPos: LabeledPositions(d.trainIdx, d.labeledIdx),
		Labels:     nn.GatherLabels(d.labels, d.labeledIdx),
		Temp:       d.opt.SingleT,
		Lambda:     d.opt.SingleLambda,
	}
	yVal := nn.GatherLabels(d.labels, d.valIdx)

	for l := 1; l < k; l++ {
		student := d.model.Classifiers[l]
		xTrain := d.inputs[l].GatherRows(d.trainIdx)
		xVal := d.inputs[l].GatherRows(d.valIdx)
		nn.FitDistilled(student.Params(), d.fitConfig(), target, func(b *nn.Binding) *tensor.Node {
			return student.Forward(b, b.Const(xTrain), true, rng)
		}, nn.AccuracyScore(func() []int { return student.Predict(xVal) }, yVal))
	}
}

// multiScale builds the ensemble teacher from the r deepest classifiers
// with trainable self-attention (Eq. 18) and distills it into every
// student (Eqs. 19–21). Per the paper, the attention vectors s^{(l)} and
// the ensemble prediction z̄ are updated jointly with the students; the
// ensemble members' own predictions enter as constants each epoch
// (refreshed as students improve), which keeps the teacher from collapsing
// onto a student mid-epoch.
func (d *distiller) multiScale(rng *rand.Rand) {
	k := d.model.K
	r := d.opt.EnsembleR
	if r > k {
		r = k
	}
	memberDepths := make([]int, 0, r)
	for l := k - r + 1; l <= k; l++ {
		memberDepths = append(memberDepths, l)
	}

	c := d.model.NumClasses
	attn := make([]*nn.Param, len(memberDepths))
	for i := range attn {
		attn[i] = nn.NewParam("ens.s"+strconv.Itoa(memberDepths[i]), mat.Randn(c, 1, 0.1, rng))
	}

	labeledPos := LabeledPositions(d.trainIdx, d.labeledIdx)
	yLabeled := nn.GatherLabels(d.labels, d.labeledIdx)
	yVal := nn.GatherLabels(d.labels, d.valIdx)
	xTrain := make([]*mat.Matrix, k+1)
	xVal := make([]*mat.Matrix, k+1)
	for l := 1; l <= k; l++ {
		xTrain[l] = d.inputs[l].GatherRows(d.trainIdx)
		xVal[l] = d.inputs[l].GatherRows(d.valIdx)
	}

	var params []*nn.Param
	for l := 1; l < k; l++ {
		params = append(params, d.model.Classifiers[l].Params()...)
	}
	params = append(params, attn...)
	// validation target: the weakest student f^{(1)}, which the paper's
	// Table VIII evaluates
	score := nn.AccuracyScore(func() []int { return d.model.Classifiers[1].Predict(xVal[1]) }, yVal)
	lambda, temp := d.opt.MultiLambda, d.opt.MultiT
	nn.Fit(params, d.fitConfig(), func(b *nn.Binding) *tensor.Node {
		// Ensemble teacher (Eq. 18): member predictions ỹ^{(l)} as constants,
		// q^{(l)} = σ(ỹ^{(l)}·s^{(l)}), w = softmax over members,
		// z̄ = softmax(Σ w^{(l)} ỹ^{(l)}).
		memberProbs := make([]*tensor.Node, len(memberDepths))
		var qs []*tensor.Node
		for i, l := range memberDepths {
			probs := b.Const(mat.SoftmaxRows(d.model.Classifiers[l].Logits(xTrain[l])))
			memberProbs[i] = probs
			qs = append(qs, tensor.Sigmoid(tensor.MatMul(probs, b.Node(attn[i]))))
		}
		w := tensor.Softmax(tensor.ConcatColsN(qs...))
		var mix *tensor.Node
		for i := range memberDepths {
			term := tensor.MulColBroadcast(memberProbs[i], tensor.SliceCols(w, i, i+1))
			if mix == nil {
				mix = term
			} else {
				mix = tensor.Add(mix, term)
			}
		}
		zbar := tensor.Softmax(mix)

		// L_t: teacher constraint (Eq. 20) over the labeled nodes.
		loss := tensor.NLLFromProbs(tensor.GatherRows(zbar, labeledPos), yLabeled)

		// Soft teacher target p̄ = softmax(z̄/T) (Eq. 21), kept on-tape so
		// gradients reach the attention vectors through L_e as well.
		pbar := tensor.Softmax(tensor.Scale(1/temp, zbar))

		for l := 1; l < k; l++ {
			student := d.model.Classifiers[l]
			logits := student.Forward(b, b.Const(xTrain[l]), true, rng)
			loss = tensor.Add(loss, nn.DistillLoss(
				tensor.CrossEntropyLabels(tensor.GatherRows(logits, labeledPos), yLabeled),
				crossEntropyNodes(logits, pbar, temp), lambda, temp))
		}
		return loss
	}, score)
}

// crossEntropyNodes is −mean Σ target ⊙ log softmax(logits/T) where both
// sides live on the tape (the trainable-teacher variant of SoftCrossEntropy).
func crossEntropyNodes(logits, target *tensor.Node, temp float64) *tensor.Node {
	ls := tensor.LogSoftmax(tensor.Scale(1/temp, logits))
	n := float64(logits.Rows())
	return tensor.Scale(-1/n, tensor.SumAll(tensor.Mul(target, ls)))
}

// tempSoftmax returns softmax(logits/T) as a plain matrix.
func tempSoftmax(logits *mat.Matrix, temp float64) *mat.Matrix {
	return mat.SoftmaxRows(mat.Scale(1/temp, logits))
}
