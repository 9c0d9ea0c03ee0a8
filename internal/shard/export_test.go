package shard

// Exports of in-package test helpers for the external shard_test package.
// The chaos-driven failover suites live there because internal/chaos
// imports internal/shard — importing it from an in-package test file would
// be an import cycle.

var (
	// TestFixture builds (or returns the cached) tiny trained dataset+model.
	TestFixture = fixture
	// TestInferOpts sweeps the operating points the equivalence gates pin.
	TestInferOpts = inferOpts
	// TestRequireSameAnswers asserts router answers are bit-identical to the
	// unsharded deployment across every operating point.
	TestRequireSameAnswers = requireSameAnswers
	// TestDeltasFor stages the canonical graph-mutation sequence.
	TestDeltasFor = testDeltas
	// TestFastRetry is the tight-backoff Config the fault suites use.
	TestFastRetry = fastRetry
	// TestListenAt listens on an address, polling a just-released port.
	TestListenAt = listenAt
)
