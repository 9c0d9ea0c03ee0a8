package synth

// The presets mirror the relative scale, density and difficulty ordering of
// the paper's Table II. Absolute sizes are reduced so every experiment runs
// on a laptop in seconds; the synth package comment explains why the
// substitution preserves the relevant behaviour.
//
//	paper:  Flickr        n=89k  m=900k  f=500 c=7   (hardest; ~49% ACC)
//	        Ogbn-arxiv    n=169k m=1.2M  f=128 c=40  (medium; ~69% ACC)
//	        Ogbn-products n=2.4M m=124M  f=100 c=47  (densest, largest; ~74% ACC)

// FlickrLike mirrors Flickr: moderate density, weak feature signal (hard task).
func FlickrLike(seed int64) Config {
	return Config{
		Name:       "flickr-like",
		N:          3000,
		NumClasses: 7,
		FeatureDim: 64,
		AvgDegree:  10,
		PowerLaw:   2.2,
		Homophily:  0.55,
		FeatureSNR: 2.0,
		TrainFrac:  0.5,
		ValFrac:    0.25,
		Seed:       seed,
	}
}

// ArxivLike mirrors Ogbn-arxiv: more classes, moderate signal.
func ArxivLike(seed int64) Config {
	return Config{
		Name:       "arxiv-like",
		N:          6000,
		NumClasses: 16,
		FeatureDim: 48,
		AvgDegree:  7,
		PowerLaw:   2.4,
		Homophily:  0.65,
		FeatureSNR: 3.0,
		TrainFrac:  0.55,
		ValFrac:    0.15,
		Seed:       seed,
	}
}

// ProductsLike mirrors Ogbn-products: the largest and densest graph, small
// train fraction (most nodes are unseen test nodes, as in OGB).
func ProductsLike(seed int64) Config {
	return Config{
		Name:       "products-like",
		N:          10000,
		NumClasses: 12,
		FeatureDim: 40,
		AvgDegree:  25,
		PowerLaw:   2.0,
		Homophily:  0.75,
		FeatureSNR: 3.5,
		TrainFrac:  0.10,
		ValFrac:    0.05,
		Seed:       seed,
	}
}

// Tiny is a fast preset for unit tests and the quickstart example.
func Tiny(seed int64) Config {
	return Config{
		Name:       "tiny",
		N:          300,
		NumClasses: 4,
		FeatureDim: 16,
		AvgDegree:  6,
		PowerLaw:   2.3,
		Homophily:  0.7,
		FeatureSNR: 2.0,
		TrainFrac:  0.5,
		ValFrac:    0.2,
		Seed:       seed,
	}
}
