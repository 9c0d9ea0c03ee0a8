// Package bench regenerates every table and figure of the paper's
// evaluation (§IV) on the synthetic dataset analogs: the main comparison
// (Table V), node-depth distributions (Table VI), the NAP ablation
// (Table VII), the Inception-Distillation ablation (Table VIII),
// generalization to SIGN/S²GC/GAMLP (Tables IX–XI), the accuracy–latency
// trade-off (Fig. 4), the batch-size study (Fig. 5) and hyper-parameter
// sensitivity (Fig. 6), plus the complexity inventory of Tables I–IV.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/synth"
)

// Config controls how experiments run. Quick mode shrinks datasets and
// epoch counts so the whole suite fits in a few minutes (used by the
// repository's `go test -bench` harness); full mode is the paper-scale run.
type Config struct {
	Seed      int64
	Runs      int // timing repetitions, paper uses 3
	BatchSize int // inference batch size ("500" in the paper's protocol)
	Quick     bool
}

// DefaultConfig is the full-size experiment configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, Runs: 3, BatchSize: 100, Quick: false}
}

// QuickConfig shrinks everything for fast regeneration.
func QuickConfig() Config {
	return Config{Seed: 1, Runs: 2, BatchSize: 50, Quick: true}
}

// DatasetNames lists the three paper-analog datasets in Table II order.
func DatasetNames() []string { return []string{"flickr-like", "arxiv-like", "products-like"} }

// Dataset returns the named dataset preset, shrunk in quick mode.
func (c Config) Dataset(name string) (synth.Config, error) {
	var cfg synth.Config
	switch name {
	case "flickr-like":
		cfg = synth.FlickrLike(c.Seed)
		if c.Quick {
			cfg.N = 1000
		}
	case "arxiv-like":
		cfg = synth.ArxivLike(c.Seed)
		if c.Quick {
			cfg.N = 1500
		}
	case "products-like":
		cfg = synth.ProductsLike(c.Seed)
		if c.Quick {
			cfg.N = 2500
		}
	default:
		return cfg, fmt.Errorf("bench: unknown dataset %q", name)
	}
	return cfg, nil
}

// TrainOptions returns the NAI training configuration for a base model,
// mirroring the paper's Tables III/IV hyper-parameters at our scale.
func (c Config) TrainOptions(model string) core.TrainOptions {
	opt := core.DefaultTrainOptions()
	opt.Model = model
	opt.Seed = c.Seed

	// Table III/IV distillation hyper-parameters per base model.
	switch model {
	case "sgc":
		opt.K = 5
		opt.SingleT, opt.SingleLambda = 1.1, 0.3
		opt.MultiT, opt.MultiLambda = 1.5, 0.8
	case "sign":
		opt.K = 4
		opt.SingleT, opt.SingleLambda = 2.0, 0.9
		opt.MultiT, opt.MultiLambda = 1.8, 0.9
	case "s2gc":
		opt.K = 6
		opt.SingleT, opt.SingleLambda = 1.0, 0.1
		opt.MultiT, opt.MultiLambda = 1.9, 0.6
	case "gamlp":
		opt.K = 4
		opt.SingleT, opt.SingleLambda = 1.6, 0.9
		opt.MultiT, opt.MultiLambda = 1.8, 0.8
	}
	opt.EnsembleR = 2
	opt.Hidden = []int{64}
	opt.Dropout = 0.1
	// Sparse labels (V_l ⊂ V_train) are the regime the paper motivates:
	// distillation then adds real signal from unlabeled training nodes.
	opt.LabeledFrac = 0.4
	opt.Base = nn.TrainConfig{Epochs: 200, LR: 0.01, WeightDecay: 1e-4, Patience: 30, Seed: c.Seed}
	opt.DistillEpochs = 150
	opt.GateEpochs = 60
	opt.GateLR = 0.01

	if c.Quick {
		opt.K = min(opt.K, 4)
		opt.Base.Epochs = 80
		opt.Base.Patience = 15
		opt.DistillEpochs = 60
		opt.GateEpochs = 30
		opt.Hidden = []int{32}
	}
	return opt
}
