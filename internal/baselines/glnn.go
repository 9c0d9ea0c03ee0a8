package baselines

import (
	"math/rand"

	"repro/internal/core"
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
	StudentConfig
}

// DefaultGLNNConfig mirrors the paper's GLNN settings at our scale.
func DefaultGLNNConfig() GLNNConfig { return GLNNConfig{defaultStudent()} }

// TrainGLNN fits the student against the teacher's soft targets.
func TrainGLNN(td *TeacherData, cfg GLNNConfig) *GLNN {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tg := td.Ind.Graph
	student := nn.NewMLP("glnn", tg.F(), cfg.Hidden, tg.NumClasses, cfg.Dropout, rng)
	trainDistilledMLP(student, tg.Features, td, cfg.StudentConfig, rng)
	return &GLNN{Student: student}
}

// Infer classifies targets from raw features only.
func (m *GLNN) Infer(g *graph.Graph, targets []int, batchSize int) *core.Result {
	return inferBatches(targets, batchSize, func(batch []int) *core.Result {
		res := &core.Result{Pred: m.Student.Predict(g.Features.GatherRows(batch))}
		res.MACs.Classification = len(batch) * m.Student.MACsPerRow()
		return res
	})
}

// trainDistilledMLP is the KD fit GLNN and NOSMOG students share, over the
// rows of inputs.
func trainDistilledMLP(student *nn.MLP, inputs *mat.Matrix, td *TeacherData, cfg StudentConfig, rng *rand.Rand) {
	xTrain := inputs.GatherRows(td.TrainIdx)
	xVal := inputs.GatherRows(td.ValIdx)
	td.distill(student.Params(), cfg,
		func(b *nn.Binding) *tensor.Node { return student.Forward(b, b.Const(xTrain), true, rng) },
		func() []int { return student.Predict(xVal) })
}
