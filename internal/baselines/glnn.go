package baselines

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// GLNN distills the GNN teacher into a plain MLP over raw node features
// (Zhang et al., ICLR 2022). Inference needs no graph access at all, which
// makes it the fastest baseline — and the weakest on unseen nodes, because
// all topology information is discarded.
type GLNN struct {
	Student *nn.MLP
}

// GLNNConfig controls GLNN student training.
type GLNNConfig struct {
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

// DefaultGLNNConfig mirrors the paper's GLNN settings at our scale.
func DefaultGLNNConfig() GLNNConfig {
	return GLNNConfig{Hidden: []int{128}, Dropout: 0.1, Epochs: 150, LR: 0.01,
		Temperature: 1.5, Lambda: 0.7, Patience: 25, Seed: 1}
}

// TrainGLNN fits the student against the teacher's soft targets.
func TrainGLNN(td *TeacherData, cfg GLNNConfig) *GLNN {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tg := td.Ind.Graph
	student := nn.NewMLP("glnn", tg.F(), cfg.Hidden, tg.NumClasses, cfg.Dropout, rng)
	trainDistilledMLP(student, tg.Features, td, studentConfig(cfg.Epochs, cfg.LR, cfg.Patience),
		cfg.Temperature, cfg.Lambda, rng)
	return &GLNN{Student: student}
}

// Infer classifies targets from raw features only.
func (m *GLNN) Infer(g *graph.Graph, targets []int, batchSize int) *Result {
	return inferBatches(targets, batchSize, func(batch []int) *Result {
		res := &Result{Pred: m.Student.Predict(g.Features.GatherRows(batch))}
		res.MACs.Classification = len(batch) * m.Student.MACsPerRow()
		return res
	})
}

// trainDistilledMLP is the KD fit GLNN and NOSMOG students share, over the
// rows of inputs.
func trainDistilledMLP(student *nn.MLP, inputs *mat.Matrix, td *TeacherData,
	cfg nn.TrainConfig, temp, lambda float64, rng *rand.Rand) {

	xTrain := inputs.GatherRows(td.TrainIdx)
	xVal := inputs.GatherRows(td.ValIdx)
	td.distill(student.Params(), cfg, temp, lambda,
		func(b *nn.Binding) *tensor.Node { return student.Forward(b, b.Const(xTrain), true, rng) },
		func() []int { return student.Predict(xVal) })
}
