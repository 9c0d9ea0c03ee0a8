package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// TrainConfig controls the supervised training loop.
type TrainConfig struct {
	Epochs      int
	LR          float64
	WeightDecay float64
	// Patience stops training after this many epochs without validation
	// improvement; 0 disables early stopping.
	Patience int
	Seed     int64
}

// TrainResult summarizes a training run.
type TrainResult struct {
	Epochs       int
	BestValAcc   float64
	FinalLoss    float64
	EarlyStopped bool
}

// Fit is the epoch loop every trainer runs. Each epoch builds loss on a
// fresh binding, backpropagates it and takes one Adam step (cfg.LR,
// cfg.WeightDecay) over params. With a score closure (higher is better) it
// then scores the model, keeps a copy of the best-scoring weights, stops
// once cfg.Patience epochs pass without improvement (0 never stops early)
// and restores the best weights at the end. With a nil score all cfg.Epochs
// epochs run and nothing is restored. cfg.Seed is unused: the closures own
// their random draws.
func Fit(params []*Param, cfg TrainConfig, loss func(b *Binding) *tensor.Node, score func() float64) TrainResult {
	opt := NewAdam(cfg.LR, cfg.WeightDecay)
	res := TrainResult{}
	best := -1.0
	var snap []*mat.Matrix
	sinceBest := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		b := Bind()
		l := loss(b)
		b.Backward(l)
		opt.Step(params)
		res.FinalLoss = l.Scalar()
		res.Epochs = epoch + 1

		if score == nil {
			continue
		}
		if s := score(); s > best {
			best, sinceBest = s, 0
			snap = snapshot(params)
		} else if sinceBest++; cfg.Patience > 0 && sinceBest >= cfg.Patience {
			res.EarlyStopped = true
			break
		}
	}
	if snap != nil {
		restore(params, snap)
		res.BestValAcc = best
	}
	return res
}

// TrainClassifier fits model on rows trainIdx of x (labels indexed globally)
// with cross-entropy, early-stopping on accuracy over valIdx. The best
// validation weights are restored at the end.
func TrainClassifier(model *MLP, x *mat.Matrix, labels []int, trainIdx, valIdx []int, cfg TrainConfig) TrainResult {
	if len(trainIdx) == 0 {
		panic("nn: empty training set")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	xTrain := x.GatherRows(trainIdx)
	yTrain := GatherLabels(labels, trainIdx)
	xVal := x.GatherRows(valIdx)
	return Fit(model.Params(), cfg, func(b *Binding) *tensor.Node {
		return tensor.CrossEntropyLabels(model.Forward(b, b.Const(xTrain), true, rng), yTrain)
	}, AccuracyScore(func() []int { return model.Predict(xVal) }, GatherLabels(labels, valIdx)))
}

// DistillLoss is the knowledge-distillation objective of Eq. 17,
// (1−λ)·hard + λ·T²·soft, for a hard-label cross-entropy and a
// temperature-T soft cross-entropy already on the tape.
func DistillLoss(hard, soft *tensor.Node, lambda, temp float64) *tensor.Node {
	return tensor.Add(tensor.Scale(1-lambda, hard), tensor.Scale(lambda*temp*temp, soft))
}

// AccuracyScore is Fit's score for a validation set: the accuracy of
// predict() against labels y. It is nil when y is empty, so Fit then runs
// every epoch and restores nothing.
func AccuracyScore(predict func() []int, y []int) func() float64 {
	if len(y) == 0 {
		return nil
	}
	return func() float64 { return Accuracy(predict(), y) }
}

// Accuracy returns the fraction of predictions equal to labels.
func Accuracy(pred, labels []int) float64 {
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("nn: %d predictions for %d labels", len(pred), len(labels)))
	}
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// GatherLabels returns labels[idx[i]] for every i.
func GatherLabels(labels []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = labels[v]
	}
	return out
}

func snapshot(params []*Param) []*mat.Matrix {
	out := make([]*mat.Matrix, len(params))
	for i, p := range params {
		out[i] = p.Value.Clone()
	}
	return out
}

func restore(params []*Param, snap []*mat.Matrix) {
	for i, p := range params {
		p.Value.CopyFrom(snap[i])
	}
}
