package repro

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus micro-benchmarks of the kernels that dominate inference cost. The
// experiment benchmarks run the bench harness in quick mode and write the
// rendered tables to results/<name>.txt so `go test -bench=.` doubles as a
// full reproduction run. Suites are trained once per process and cached.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/scalable"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// benchExperiment runs a registered experiment once per iteration and
// persists its rendered output under results/.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := bench.QuickConfig()
	if err := os.MkdirAll("results", 0o755); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join("results", name+".txt")
	for i := 0; i < b.N; i++ {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := bench.Run(name, cfg, f); err != nil {
			f.Close()
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(0, "ns/extra") // keep -benchmem output aligned
	fmt.Fprintf(os.Stderr, "  [%s written]\n", path)
}

func BenchmarkTable1Complexity(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkTable2Datasets(b *testing.B)          { benchExperiment(b, "table2") }
func BenchmarkTable3ConfigTables(b *testing.B)      { benchExperiment(b, "config") }
func BenchmarkTable5MainComparison(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable6NodeDistributions(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7NAPAblation(b *testing.B)       { benchExperiment(b, "table7") }
func BenchmarkTable8DistillAblation(b *testing.B)   { benchExperiment(b, "table8") }
func BenchmarkTable9SIGN(b *testing.B)              { benchExperiment(b, "table9") }
func BenchmarkTable10S2GC(b *testing.B)             { benchExperiment(b, "table10") }
func BenchmarkTable11GAMLP(b *testing.B)            { benchExperiment(b, "table11") }
func BenchmarkFigure4Tradeoff(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFigure5BatchSize(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFigure6Sensitivity(b *testing.B)      { benchExperiment(b, "fig6") }

// --- kernel micro-benchmarks --------------------------------------------

func BenchmarkGEMM128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(128, 128, 1, rng)
	y := mat.Randn(128, 128, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMul(x, y)
	}
}

func benchGraph(b *testing.B) (*synth.Dataset, *sparse.CSR) {
	b.Helper()
	cfg := synth.FlickrLike(1)
	cfg.N = 2000
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ds, sparse.NormalizedAdjacency(ds.Graph.Adj, sparse.GammaSymmetric)
}

func BenchmarkSpMM(b *testing.B) {
	ds, adj := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj.MulDense(ds.Graph.Features)
	}
}

func BenchmarkPropagateK4(b *testing.B) {
	ds, adj := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalable.Propagate(adj, ds.Graph.Features, 4)
	}
}

// BenchmarkStationaryRank1 vs BenchmarkStationaryDense is the
// stationary-state ablation: the rank-1 identity of Eq. 7 vs the naive
// O(n²f) path (see ARCHITECTURE.md).
func BenchmarkStationaryRank1(b *testing.B) {
	ds, _ := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeStationary(ds.Graph.Adj, ds.Graph.Features, 0.5)
	}
}

func BenchmarkStationaryDense(b *testing.B) {
	cfg := synth.Tiny(1) // n² path: keep it small
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DenseStationaryReference(ds.Graph.Adj, ds.Graph.Features, 0.5)
	}
}

// trainedSuite provides a cached trained model for inference benchmarks.
func trainedSuite(b *testing.B) *bench.Suite {
	b.Helper()
	s, err := bench.GetSuite(bench.QuickConfig(), "flickr-like", "sgc")
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkInferenceVanilla(b *testing.B) {
	s := trainedSuite(b)
	targets := s.TestSubset(100)
	opt := core.InferenceOptions{Mode: core.ModeFixed, TMin: 1, TMax: s.Model.K, BatchSize: 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Dep.Infer(targets, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferenceNAIDistance(b *testing.B) {
	s := trainedSuite(b)
	targets := s.TestSubset(100)
	set := s.SettingsDistance()[0]
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: set.Ts,
		TMin: set.TMin, TMax: set.TMax, BatchSize: 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Dep.Infer(targets, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferenceNAIGate(b *testing.B) {
	s := trainedSuite(b)
	targets := s.TestSubset(100)
	set := s.SettingsGate()[0]
	opt := core.InferenceOptions{Mode: core.ModeGate, TMin: set.TMin,
		TMax: set.TMax, BatchSize: 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Dep.Infer(targets, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSupportRecompute isolates the engine's supporting-set
// recomputation: after early-exit waves, shrinking the balls around the
// remaining targets saves propagation work (see ARCHITECTURE.md).
func BenchmarkAblationSupportRecompute(b *testing.B) {
	s := trainedSuite(b)
	targets := s.TestSubset(100)
	set := s.SettingsDistance()[2] // accuracy-first: exits spread over depths
	for _, variant := range []struct {
		name   string
		frozen bool
	}{{"recompute", false}, {"frozen", true}} {
		b.Run(variant.name, func(b *testing.B) {
			opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: set.Ts,
				TMin: set.TMin, TMax: set.TMax, BatchSize: 50,
				NoSupportRecompute: variant.frozen}
			var macs int
			for i := 0; i < b.N; i++ {
				res, err := s.Dep.Infer(targets, opt)
				if err != nil {
					b.Fatal(err)
				}
				macs = res.MACs.Propagation
			}
			b.ReportMetric(float64(macs), "propMACs")
		})
	}
}

// --- serving-engine benchmarks -------------------------------------------

// withGOMAXPROCS runs fn with the given parallelism (the par helper reads
// GOMAXPROCS per call, so this toggles serial vs parallel kernels).
func withGOMAXPROCS(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// BenchmarkMulDenseRows contrasts the serial and parallel row-subset SpMM
// (nnz-balanced partition; identical on single-CPU machines).
func BenchmarkMulDenseRows(b *testing.B) {
	ds, adj := benchGraph(b)
	targets := make([]int, 0, ds.Graph.N()/2)
	for i := 0; i < ds.Graph.N(); i += 2 {
		targets = append(targets, i)
	}
	out := mat.New(ds.Graph.N(), ds.Graph.F())
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		withGOMAXPROCS(1, func() {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adj.MulDenseRows(targets, ds.Graph.Features, out)
			}
		})
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adj.MulDenseRows(targets, ds.Graph.Features, out)
		}
	})
}

// BenchmarkDeploymentRefresh is the once-per-deployment cost of the cached
// serving state (normalized adjacency + stationary weighted sum) that the
// seed engine used to pay on every batch.
func BenchmarkDeploymentRefresh(b *testing.B) {
	s := trainedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Dep.Refresh()
	}
}

// BenchmarkInferMultiBatch is the end-to-end serving benchmark: many small
// NAP_d batches against one deployment, serially and fanned out.
func BenchmarkInferMultiBatch(b *testing.B) {
	s := trainedSuite(b)
	targets := s.TestSubset(200)
	set := s.SettingsDistance()[0]
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: set.Ts,
		TMin: set.TMin, TMax: set.TMax, BatchSize: 10}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			opt := opt
			opt.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := s.Dep.Infer(targets, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// measureOp times fn with one warm-up call and then as many timed
// iterations as fit in ~300ms (at least 3), reading heap counters around
// the loop for B/op and allocs/op (the BENCH_infer.json schema lives in
// internal/benchfmt, shared with the cmd/benchgate CI gate). A
// testing.Benchmark cannot be used here: it deadlocks on the global
// benchmark lock when invoked from inside a running benchmark.
func measureOp(fn func()) benchfmt.OpStats {
	fn() // warm-up
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var iters int64
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond || iters < 3 {
		fn()
		iters++
	}
	elapsed := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return benchfmt.OpStats{
		NsPerOp:     elapsed / iters,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / iters,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / iters,
	}
}

// BenchmarkInferBaselineJSON measures the serving engine's headline
// numbers and persists them to BENCH_infer.json so later PRs have a perf
// trajectory to compare against. Variants are timed internally, so this
// benchmark's own b.N is irrelevant.
func BenchmarkInferBaselineJSON(b *testing.B) {
	s := trainedSuite(b)
	targets := s.TestSubset(200)
	set := s.SettingsDistance()[0]
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: set.Ts,
		TMin: set.TMin, TMax: set.TMax, BatchSize: 10}
	res, err := s.Dep.Infer(targets, opt)
	if err != nil {
		b.Fatal(err)
	}

	g := s.DS.Graph
	rows := make([]int, 0, g.N()/2)
	for i := 0; i < g.N(); i += 2 {
		rows = append(rows, i)
	}
	out := mat.New(g.N(), g.F())
	adj := sparse.NormalizedAdjacency(s.DS.Graph.Adj, s.Model.Gamma)

	woptFan := opt
	woptFan.Workers = 4
	variants := []struct {
		name string
		// maxprocs pins GOMAXPROCS around the whole measurement (0 keeps
		// the default) so the toggle itself is never timed.
		maxprocs int
		fn       func()
	}{
		{"refresh", 0, func() { s.Dep.Refresh() }},
		{"mulDenseRows/serial", 1, func() { adj.MulDenseRows(rows, g.Features, out) }},
		{"mulDenseRows/parallel", 0, func() { adj.MulDenseRows(rows, g.Features, out) }},
		{"infer/distance-multibatch", 0, func() {
			if _, err := s.Dep.Infer(targets, opt); err != nil {
				b.Fatal(err)
			}
		}},
		{"infer/distance-multibatch-workers4", 0, func() {
			if _, err := s.Dep.Infer(targets, woptFan); err != nil {
				b.Fatal(err)
			}
		}},
	}

	baseline := benchfmt.File{
		Dataset:    "flickr-like",
		N:          g.N(),
		F:          g.F(),
		K:          s.Model.K,
		BatchSize:  opt.BatchSize,
		NumTargets: len(targets),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MACs:       res.MACs,
		Benchmarks: map[string]benchfmt.OpStats{},
	}
	for _, v := range variants {
		var st benchfmt.OpStats
		if v.maxprocs > 0 {
			withGOMAXPROCS(v.maxprocs, func() { st = measureOp(v.fn) })
		} else {
			st = measureOp(v.fn)
		}
		baseline.Benchmarks[v.name] = st
	}
	baseline.Scratch = measureScratch(b)
	baseline.Serving = measureServing(b)
	baseline.Sharding = measureSharding(b)
	baseline.Transport = measureTransport(b)
	baseline.Cache = measureCachedServing(b)
	baseline.Overload = measureOverload(b)
	baseline.Precision = measurePrecision(b)
	baseline.Failover = measureFailover(b)
	data, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_infer.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(0, "ns/extra")
	fmt.Fprintln(os.Stderr, "  [BENCH_infer.json written]")
}

// scratchWorkload builds the small-batch/large-graph serving scenario on a
// fresh deployment (empty scratch pool), so the retained scratch reflects
// exactly this workload.
func scratchWorkload(b *testing.B) (*core.Deployment, []int, core.InferenceOptions, *bench.Suite) {
	b.Helper()
	s, err := bench.GetSuite(bench.QuickConfig(), "products-like", "sgc")
	if err != nil {
		b.Fatal(err)
	}
	set := s.SettingsDistance()[0]
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: set.Ts,
		TMin: 1, TMax: 2, BatchSize: 5}
	dep, err := core.NewDeployment(s.Model, s.DS.Graph)
	if err != nil {
		b.Fatal(err)
	}
	return dep, s.TestSubset(50), opt, s
}

// measureScratch records the compacted-scratch memory model on the paper's
// latency-sensitive workload (small batches against the largest, densest
// graph at shallow depth); cmd/benchgate gates the reduction ≥5× in CI.
func measureScratch(b *testing.B) benchfmt.ScratchStats {
	dep, targets, opt, s := scratchWorkload(b)
	if _, err := dep.Infer(targets, opt); err != nil {
		b.Fatal(err)
	}
	g := s.DS.Graph
	st := benchfmt.ScratchStats{
		Workload:           "products-like/small-batch",
		N:                  g.N(),
		F:                  g.F(),
		TMax:               opt.TMax,
		BatchSize:          opt.BatchSize,
		NumTargets:         len(targets),
		ScratchBytes:       dep.ScratchBytes(),
		FullGraphEquivExpr: "TMax*n*f*8",
		FullGraphEquiv:     opt.TMax * g.N() * g.F() * 8,
	}
	st.ReductionX = float64(st.FullGraphEquiv) / float64(st.ScratchBytes)
	return st
}

// BenchmarkInferCompactMemory is the memory-side serving benchmark: it runs
// the small-batch/large-graph workload, reports allocs/op and B/op
// (-benchmem), and attaches the retained per-batch scratch bytes plus the
// dense-model equivalent so the compaction win stays a measured number.
func BenchmarkInferCompactMemory(b *testing.B) {
	dep, targets, opt, s := scratchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Infer(targets, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	g := s.DS.Graph
	b.ReportMetric(float64(dep.ScratchBytes()), "scratchB/batch")
	b.ReportMetric(float64(opt.TMax*g.N()*g.F()*8), "denseB/batch")
}

// servingWorkload is the coalescing scenario: many concurrent clients each
// asking for one node on the large, dense serving graph.
func servingWorkload(b *testing.B) (*core.Deployment, []int, core.InferenceOptions) {
	dep, _, opt, s := scratchWorkload(b)
	return dep, s.TestSubset(1 << 30), opt // all test nodes, cycled by clients
}

// runClients drives `clients` goroutines issuing single-node requests
// round-robin over targets for roughly the given duration and returns the
// measured requests/second.
func runClients(clients int, targets []int, d time.Duration, call func(node int) error) (float64, error) {
	var total atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var n int64
			for i := c; time.Since(start) < d; i += clients {
				if err := call(targets[i%len(targets)]); err != nil {
					firstErr.Store(err)
					break
				}
				n++
			}
			total.Add(n)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok {
		return 0, err
	}
	return float64(total.Load()) / elapsed.Seconds(), nil
}

// measureServing runs the coalesced-vs-naive comparison at 64 concurrent
// clients and returns the stats recorded into BENCH_infer.json (gated ≥1.5×
// by cmd/benchgate). Naive serving pays the full per-batch pipeline — BFS,
// sub-CSR extraction, stationary rows, classifier GEMM — once per request;
// the coalescer pays it once per micro-batch.
func measureServing(b *testing.B) benchfmt.ServingStats {
	dep, targets, opt := servingWorkload(b)
	const clients = 64
	cfg := serve.Config{Opt: opt, MaxBatch: clients, MaxWait: 2 * time.Millisecond}

	naiveOpt := opt
	naiveOpt.BatchSize = 0
	naive := func(v int) error {
		_, err := dep.Infer([]int{v}, naiveOpt)
		return err
	}
	srv := serve.New(dep, cfg)
	defer srv.Close()
	coalesced := func(v int) error {
		_, _, err := srv.Classify([]int{v})
		return err
	}

	const warm, run = 100 * time.Millisecond, 400 * time.Millisecond
	measure := func(call func(int) error) float64 {
		if _, err := runClients(clients, targets, warm, call); err != nil {
			b.Fatal(err)
		}
		rps, err := runClients(clients, targets, run, call)
		if err != nil {
			b.Fatal(err)
		}
		return rps
	}
	naiveRPS := measure(naive)
	coalRPS := measure(coalesced)

	st := srv.Stats()
	return benchfmt.ServingStats{
		Workload:        "products-like/64-clients-single-node",
		Clients:         clients,
		MaxBatch:        cfg.MaxBatch,
		MaxWaitUs:       cfg.MaxWait.Microseconds(),
		NaiveReqPerSec:  naiveRPS,
		CoalReqPerSec:   coalRPS,
		ThroughputX:     coalRPS / naiveRPS,
		CoalesceRate:    st.CoalesceRate,
		AvgBatchTargets: st.AvgBatchTargets,
	}
}

// measureSharding runs the sharded-serving comparison: one client streaming
// small batch requests against a 4-shard router versus a 1-shard router on
// the same products-like graph and operating point. Small batches are the
// latency-sensitive serving shape and the fair one: large batches make the
// P=1 union ball share ever more overlap, which sharding then re-pays per
// shard. Answers are
// bit-identical (the equivalence tests pin that); what sharding buys is
// wall-clock — the per-batch serial pipeline (supporting-ball BFS, sub-CSR
// extraction, remap, decision loops) runs concurrently across shards, and
// each shard's ball is a fraction of the union. cmd/benchgate gates the
// ratio ≥1.5× on the multi-core CI runner; a single-core host measures
// ≈0.75–0.8× — the fan-out has nothing to run on, so only the overhead of
// splitting one shared ball into P per-shard pipelines shows — which is
// expected, not a regression.
func measureSharding(b *testing.B) benchfmt.ShardingStats {
	s, err := bench.GetSuite(bench.QuickConfig(), "products-like", "sgc")
	if err != nil {
		b.Fatal(err)
	}
	set := s.SettingsDistance()[0]
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: set.Ts, TMin: 1, TMax: 2}
	const p, batch = 4, 8
	// Both routers serve the same read-only graph: no deltas flow here, so
	// the shared ownership is safe.
	r1, err := shard.NewRouter(s.Model, s.DS.Graph, shard.Config{Shards: 1, Radius: opt.TMax})
	if err != nil {
		b.Fatal(err)
	}
	rp, err := shard.NewRouter(s.Model, s.DS.Graph, shard.Config{Shards: p, Radius: opt.TMax})
	if err != nil {
		b.Fatal(err)
	}
	targets := s.TestSubset(1 << 30)

	const warm, run = 150 * time.Millisecond, 700 * time.Millisecond
	measure := func(rt *shard.Router) float64 {
		stream := func(d time.Duration) (float64, error) {
			start := time.Now()
			var reqs int64
			for i := 0; time.Since(start) < d; i++ {
				req := make([]int, batch)
				for j := range req {
					req[j] = targets[(i*batch+j)%len(targets)]
				}
				if _, err := rt.Infer(req, opt); err != nil {
					return 0, err
				}
				reqs++
			}
			return float64(reqs) / time.Since(start).Seconds(), nil
		}
		if _, err := stream(warm); err != nil {
			b.Fatal(err)
		}
		rps, err := stream(run)
		if err != nil {
			b.Fatal(err)
		}
		return rps
	}
	p1RPS := measure(r1)
	shardRPS := measure(rp)

	halo := 0
	for _, sz := range rp.Sizes() {
		halo += sz.Halo
	}
	return benchfmt.ShardingStats{
		Workload:         "products-like/8-target-batches",
		P:                p,
		Radius:           rp.Radius(),
		HaloFraction:     float64(halo) / float64(s.DS.Graph.N()),
		BatchTargets:     batch,
		P1ReqPerSec:      p1RPS,
		ShardedReqPerSec: shardRPS,
		SpeedupX:         shardRPS / p1RPS,
	}
}

// measureTransport prices the distributed-sharding wire: the same P-shard
// partition streaming the same small-batch workload through an in-process
// LocalTransport router versus a router dialing loopback HTTP workers.
// Each request crosses the wire once per touched shard — encode targets,
// HTTP POST over a kept-alive loopback connection, worker-side Algorithm 1,
// encode/decode the result — so HTTPOverLocal isolates exactly the codec +
// framing overhead the distributed mode adds. cmd/benchgate holds a floor
// under the ratio: on this tiny quick-mode workload per-request compute is
// small, so the wire shows at its very worst; real graphs amortize it.
func measureTransport(b *testing.B) benchfmt.TransportStats {
	s, err := bench.GetSuite(bench.QuickConfig(), "products-like", "sgc")
	if err != nil {
		b.Fatal(err)
	}
	set := s.SettingsDistance()[0]
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: set.Ts, TMin: 1, TMax: 2}
	const p, batch = 4, 8
	cfg := shard.Config{Shards: p, Radius: opt.TMax}

	local, err := shard.NewRouter(s.Model, s.DS.Graph, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// One worker process stand-in per shard behind a loopback HTTP server;
	// no deltas flow, so sharing the read-only benchmark graph is safe.
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		w, err := shard.NewWorker(s.Model, s.DS.Graph, cfg, i)
		if err != nil {
			b.Fatal(err)
		}
		ws := httptest.NewServer(shard.WorkerHandler(w))
		defer ws.Close()
		addrs[i] = ws.URL
	}
	tr := shard.NewHTTPTransport(addrs, shard.HTTPTransportConfig{})
	remote, err := shard.NewRouterTransport(s.Model, s.DS.Graph, cfg, tr)
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()

	targets := s.TestSubset(1 << 30)
	const warm, run = 150 * time.Millisecond, 700 * time.Millisecond
	measure := func(rt *shard.Router) float64 {
		stream := func(d time.Duration) (float64, error) {
			start := time.Now()
			var reqs int64
			for i := 0; time.Since(start) < d; i++ {
				req := make([]int, batch)
				for j := range req {
					req[j] = targets[(i*batch+j)%len(targets)]
				}
				if _, err := rt.Infer(req, opt); err != nil {
					return 0, err
				}
				reqs++
			}
			return float64(reqs) / time.Since(start).Seconds(), nil
		}
		if _, err := stream(warm); err != nil {
			b.Fatal(err)
		}
		rps, err := stream(run)
		if err != nil {
			b.Fatal(err)
		}
		return rps
	}
	localRPS := measure(local)
	httpRPS := measure(remote)

	return benchfmt.TransportStats{
		Workload:       "products-like/8-target-batches",
		P:              p,
		BatchTargets:   batch,
		LocalReqPerSec: localRPS,
		HTTPReqPerSec:  httpRPS,
		HTTPOverLocal:  httpRPS / localRPS,
	}
}

// measureFailover prices the replication contract end to end: 2 shards ×
// 2 HTTP worker replicas behind the daemon's HTTP surface, 64 concurrent
// clients streaming single-target requests, and one replica's process
// killed mid-run. Availability is the non-5xx fraction over the whole run,
// kill included — replication promises a single replica death is invisible
// to clients, so cmd/benchgate holds a floor just under 1.0 — and P99Us is
// the post-kill latency tail, where failover and down-marking costs would
// surface if they leaked into the request path.
func measureFailover(b *testing.B) benchfmt.FailoverStats {
	s, err := bench.GetSuite(bench.QuickConfig(), "products-like", "sgc")
	if err != nil {
		b.Fatal(err)
	}
	set := s.SettingsDistance()[0]
	opt := core.InferenceOptions{Mode: core.ModeDistance, Ts: set.Ts, TMin: 1, TMax: 2}
	const shards, reps, clients = 2, 2, 64
	cfg := shard.Config{Shards: shards, Radius: opt.TMax, Retries: 2, RetryBackoff: time.Millisecond}

	// One worker process stand-in per replica; no deltas flow, so sharing
	// the read-only benchmark graph is safe. The victim is shard 0's second
	// replica — its shard keeps a live peer, which is the whole point.
	groups := make([][]string, shards)
	var victim *httptest.Server
	for p := 0; p < shards; p++ {
		for j := 0; j < reps; j++ {
			w, werr := shard.NewWorker(s.Model, s.DS.Graph, cfg, p)
			if werr != nil {
				b.Fatal(werr)
			}
			ws := httptest.NewServer(shard.WorkerHandler(w))
			defer ws.Close()
			if p == 0 && j == 1 {
				victim = ws
			}
			groups[p] = append(groups[p], ws.URL)
		}
	}
	tr, idx := shard.NewHTTPGroups(groups, shard.HTTPTransportConfig{})
	rt, err := shard.NewRouterGroups(s.Model, s.DS.Graph, cfg, tr, idx, groups)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	srv := serve.NewBackend(rt, serve.Config{Opt: opt, MaxBatch: clients, MaxWait: 2 * time.Millisecond})
	defer srv.Close()
	front := httptest.NewServer(srv.Handler())
	defer front.Close()

	targets := s.TestSubset(1 << 30)
	post := func(v int) (int, error) {
		body, _ := json.Marshal(map[string][]int{"nodes": {v}})
		resp, err := http.Post(front.URL+"/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	const warm, run, killAfter = 150 * time.Millisecond, 1100 * time.Millisecond, 400 * time.Millisecond
	// Warm with the full fleet alive: connection pools fill, routing settles.
	warmStop := time.Now().Add(warm)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(warmStop); i += clients {
				if _, err := post(targets[i%len(targets)]); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// The measured window: kill the victim at killAfter, clients never stop.
	type sample struct {
		postKill bool
		us       int64
		bad      bool
	}
	perClient := make([][]sample, clients)
	start := time.Now()
	killAt := start.Add(killAfter)
	time.AfterFunc(killAfter, func() {
		victim.CloseClientConnections() // sever kept-alive conns: a real SIGKILL
		victim.Close()
	})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Since(start) < run; i += clients {
				at := time.Now()
				status, err := post(targets[i%len(targets)])
				el := time.Since(at)
				perClient[c] = append(perClient[c], sample{
					postKill: at.After(killAt),
					us:       el.Microseconds(),
					// A transport-level client failure counts against
					// availability like a 5xx would.
					bad: err != nil || status >= 500,
				})
			}
		}(c)
	}
	wg.Wait()

	var requests, bad int
	var tail []int64
	for _, ss := range perClient {
		for _, smp := range ss {
			requests++
			if smp.bad {
				bad++
			}
			if smp.postKill {
				tail = append(tail, smp.us)
			}
		}
	}
	var p99 int64
	if len(tail) > 0 {
		sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
		p99 = tail[int(0.99*float64(len(tail)-1))]
	}
	return benchfmt.FailoverStats{
		Workload:     "products-like/replica-kill",
		Shards:       shards,
		Replicas:     reps,
		Clients:      clients,
		Requests:     requests,
		Errors5xx:    bad,
		Availability: 1 - float64(bad)/float64(requests),
		P99Us:        p99,
	}
}

// BenchmarkFailover reports the replica-kill availability experiment as
// metrics; the JSON-recorded version feeding the CI gate lives in
// BenchmarkInferBaselineJSON.
func BenchmarkFailover(b *testing.B) {
	var st benchfmt.FailoverStats
	for i := 0; i < b.N; i++ {
		st = measureFailover(b)
	}
	b.ReportMetric(st.Availability, "availability")
	b.ReportMetric(float64(st.P99Us), "failover-p99-us")
	b.ReportMetric(float64(st.Requests), "requests")
}

// BenchmarkTransportInfer reports the local-vs-HTTP transport comparison as
// metrics; the JSON-recorded version feeding the CI gate lives in
// BenchmarkInferBaselineJSON.
func BenchmarkTransportInfer(b *testing.B) {
	var st benchfmt.TransportStats
	for i := 0; i < b.N; i++ {
		st = measureTransport(b)
	}
	b.ReportMetric(st.LocalReqPerSec, "local-req/s")
	b.ReportMetric(st.HTTPReqPerSec, "http-req/s")
	b.ReportMetric(st.HTTPOverLocal, "httpOverLocal")
}

// BenchmarkShardedInfer reports the sharded-vs-single routed serving
// comparison as metrics; the JSON-recorded version feeding the CI gate
// lives in BenchmarkInferBaselineJSON.
func BenchmarkShardedInfer(b *testing.B) {
	var st benchfmt.ShardingStats
	for i := 0; i < b.N; i++ {
		st = measureSharding(b)
	}
	b.ReportMetric(st.P1ReqPerSec, "p1-req/s")
	b.ReportMetric(st.ShardedReqPerSec, "sharded-req/s")
	b.ReportMetric(st.SpeedupX, "speedupX")
	b.ReportMetric(st.HaloFraction, "haloFrac")
}

// measureCachedServing runs the hot-node result-cache comparison: 64
// concurrent clients replaying one deterministic Zipf(1.1) target stream
// (rank 0 hottest — the skew real serving traffic shows) against two
// otherwise identical coalescing servers over the same deployment, one
// with the result cache and one without. No deltas flow, so the cached
// server converges to answering hot nodes from the cache while the
// uncached one re-pays BFS + extraction + propagation + classification per
// flush; answers are bit-identical either way (pinned by the serve
// package's equivalence suite). SpeedupX is gated ≥2× in CI by
// cmd/benchgate -min-cache-speedup.
func measureCachedServing(b *testing.B) benchfmt.CachedServingStats {
	dep, targets, opt := servingWorkload(b)
	const clients = 64
	const zipfS = 1.1
	const cacheEntries = 4096
	seq := bench.ZipfTargets(7, zipfS, targets, 1<<15)
	cfg := serve.Config{Opt: opt, MaxBatch: clients, MaxWait: 2 * time.Millisecond}

	const warm, run = 100 * time.Millisecond, 400 * time.Millisecond
	measure := func(srv *serve.Server) float64 {
		call := func(v int) error {
			_, _, err := srv.Classify([]int{v})
			return err
		}
		if _, err := runClients(clients, seq, warm, call); err != nil {
			b.Fatal(err)
		}
		rps, err := runClients(clients, seq, run, call)
		if err != nil {
			b.Fatal(err)
		}
		return rps
	}

	uncached := serve.New(dep, cfg)
	uncachedRPS := measure(uncached)
	uncached.Close()

	cfg.CacheSize = cacheEntries
	cached := serve.New(dep, cfg)
	cachedRPS := measure(cached)
	st := cached.Stats()
	cached.Close()

	hitRate := 0.0
	if st.Cache != nil {
		hitRate = st.Cache.HitRate
	}
	return benchfmt.CachedServingStats{
		Workload:          "products-like/64-clients-zipf1.1",
		Clients:           clients,
		ZipfS:             zipfS,
		DistinctTargets:   len(targets),
		CacheEntries:      cacheEntries,
		UncachedReqPerSec: uncachedRPS,
		CachedReqPerSec:   cachedRPS,
		SpeedupX:          cachedRPS / uncachedRPS,
		HitRate:           hitRate,
	}
}

// BenchmarkServeCachedZipf reports the cached-vs-uncached hot-node serving
// comparison as metrics; the JSON-recorded version feeding the CI gate
// lives in BenchmarkInferBaselineJSON.
func BenchmarkServeCachedZipf(b *testing.B) {
	var st benchfmt.CachedServingStats
	for i := 0; i < b.N; i++ {
		st = measureCachedServing(b)
	}
	b.ReportMetric(st.UncachedReqPerSec, "uncached-req/s")
	b.ReportMetric(st.CachedReqPerSec, "cached-req/s")
	b.ReportMetric(st.SpeedupX, "speedupX")
	b.ReportMetric(st.HitRate, "hitRate")
}

// openLoop offers requests at the given rate for roughly duration d — an
// open-loop arrival process that does NOT slow down when the server does,
// unlike the closed-loop runClients. It returns the goodput (successfully
// served requests per second), the p99 latency over admitted requests, and
// the number of overload rejections. Any error that is not an overload
// rejection (429/504-class) fails the benchmark.
//
// The arrival schedule is striped over a pool of pre-spawned workers
// (worker w owns every workers-th slot); a worker parked inside an
// admitted request skips the slots it missed rather than issuing them
// late, so the offered rate stays honest. The pool must be large relative
// to the admission budget: admitted requests park at most MaxPending
// workers, and the rest keep probing the gate at schedule speed. Spawning
// a fresh goroutine per arrival would NOT work here — at saturation the
// un-run goroutine backlog queues in the Go scheduler instead of at the
// admission gate, and the "clients" then drain exactly as fast as the
// co-scheduled server serves, so overload never materializes.
func openLoop(b *testing.B, srv *serve.Server, targets []int, rate float64, d time.Duration) (goodput float64, p99 time.Duration, rejected int64) {
	b.Helper()
	const workers = 2048
	slot := float64(time.Second) / rate // one arrival every slot ns
	period := time.Duration(slot * workers)

	var mu sync.Mutex
	var lats []time.Duration
	var ok, rej int64
	var fatal atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				at := start.Add(time.Duration((float64(w) + float64(k)*workers) * slot))
				if at.After(end) {
					return
				}
				now := time.Now()
				if at.After(now) {
					time.Sleep(at.Sub(now))
				} else if now.Sub(at) > period {
					continue // missed while parked in a previous request
				}
				t0 := time.Now()
				_, _, err := srv.Classify([]int{targets[(w+k*workers)%len(targets)]})
				switch {
				case err == nil:
					lat := time.Since(t0)
					mu.Lock()
					lats = append(lats, lat)
					mu.Unlock()
					atomic.AddInt64(&ok, 1)
				case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrQuota),
					errors.Is(err, serve.ErrShed), errors.Is(err, context.DeadlineExceeded):
					atomic.AddInt64(&rej, 1)
				default:
					fatal.Store(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err, isErr := fatal.Load().(error); isErr {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		p99 = lats[int(0.99*float64(len(lats)-1))]
	}
	return float64(ok) / elapsed.Seconds(), p99, rej
}

// measureOverload is the saturation benchmark: calibrate the server's
// closed-loop capacity, then offer open-loop arrivals at 1× and 4× of it
// against a bounded admission budget with a default deadline. The gated
// number is goodput(4×)/goodput(1×): admission control turns the excess
// into fast 429s, so goodput holds (and the admitted p99 stays bounded by
// the deadline) instead of collapsing under queueing.
func measureOverload(b *testing.B) benchfmt.OverloadStats {
	dep, targets, opt := servingWorkload(b)
	// Two MaxBatch windows of budget: enough headroom that admission never
	// caps goodput (one window fills while one flushes), small enough that
	// saturation actually reaches the gate and turns into 429s.
	const (
		maxPending = 128
		deadline   = 250 * time.Millisecond
	)
	cfg := serve.Config{
		Opt: opt, MaxBatch: 64, MaxWait: 2 * time.Millisecond,
		MaxPending: maxPending, DefaultDeadline: deadline,
	}
	srv := serve.New(dep, cfg)
	defer srv.Close()

	// Closed-loop calibration: enough clients to keep the coalescing
	// windows full (2×MaxBatch) but under the admission budget, so the
	// measured rate is the server's real saturation throughput and no
	// calibration request is rejected.
	call := func(v int) error {
		_, _, err := srv.Classify([]int{v})
		return err
	}
	if _, err := runClients(128, targets, 100*time.Millisecond, call); err != nil {
		b.Fatal(err)
	}
	capacity, err := runClients(128, targets, 300*time.Millisecond, call)
	if err != nil {
		b.Fatal(err)
	}

	// Long enough windows that the expired/served split at 4× converges:
	// the admitted tail rides right at the deadline, so short windows make
	// the goodput ratio noisy.
	const run = 1500 * time.Millisecond
	goodput1, p99at1, _ := openLoop(b, srv, targets, capacity, run)
	goodput4, p99at4, rejected4 := openLoop(b, srv, targets, 4*capacity, run)

	return benchfmt.OverloadStats{
		Workload:          "products-like/open-loop-saturation",
		MaxPending:        maxPending,
		DefaultDeadlineMs: deadline.Milliseconds(),
		CapacityReqPerSec: capacity,
		Offered1x:         capacity,
		Goodput1x:         goodput1,
		P99At1xUs:         p99at1.Microseconds(),
		Offered4x:         4 * capacity,
		Goodput4x:         goodput4,
		P99At4xUs:         p99at4.Microseconds(),
		Rejected4x:        rejected4,
		GoodputRatio:      goodput4 / goodput1,
	}
}

// BenchmarkServeOverload reports the 1×/4× saturation comparison as
// metrics; the JSON-recorded version feeding the CI gate
// (cmd/benchgate -min-overload-goodput) lives in BenchmarkInferBaselineJSON.
func BenchmarkServeOverload(b *testing.B) {
	var st benchfmt.OverloadStats
	for i := 0; i < b.N; i++ {
		st = measureOverload(b)
	}
	b.ReportMetric(st.Goodput1x, "goodput1x-req/s")
	b.ReportMetric(st.Goodput4x, "goodput4x-req/s")
	b.ReportMetric(st.GoodputRatio, "goodputRatio")
	b.ReportMetric(float64(st.P99At4xUs), "p99-4x-us")
	b.ReportMetric(float64(st.Rejected4x), "rejected4x")
}

// BenchmarkServeCoalesced reports the coalesced-serving comparison as
// metrics (req/s for both modes and the throughput ratio); the JSON-recorded
// version feeding the CI gate lives in BenchmarkInferBaselineJSON.
func BenchmarkServeCoalesced(b *testing.B) {
	var st benchfmt.ServingStats
	for i := 0; i < b.N; i++ {
		st = measureServing(b)
	}
	b.ReportMetric(st.NaiveReqPerSec, "naive-req/s")
	b.ReportMetric(st.CoalReqPerSec, "coalesced-req/s")
	b.ReportMetric(st.ThroughputX, "speedupX")
	b.ReportMetric(st.AvgBatchTargets, "targets/batch")
}

func BenchmarkGateDecision(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := core.NewGate("g", 64, rng)
	xl := mat.Randn(100, 64, 1, rng)
	xinf := mat.Randn(100, 64, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Decide(xl, xinf)
	}
}

func BenchmarkDistanceDecision(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xl := mat.Randn(100, 64, 1, rng)
	xinf := mat.Randn(100, 64, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.RowDistances(xl, xinf)
	}
}

// widenF32 copies a float32 row-major buffer into a fresh f64 matrix so the
// f64 combiner/classifier stack can consume relaxed-tier representations.
func widenF32(src []float32, rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i, v := range src {
		m.Data[i] = float64(v)
	}
	return m
}

// measurePrecision records the relaxed-precision kernel comparison: the
// same full-graph SpMM through the f64 reference and the f32/int8 tiers
// (a bandwidth win at identical arithmetic — every tier performs the same
// 2·nnz·f multiply-adds), plus the accuracy cost of serving narrow: each
// tier's representations are propagated to depth K through its own
// kernels, then combined and classified by the (always-f64) classifier
// stack, and compared row-wise against the f64 reference on the benchmark
// targets. cmd/benchgate holds floors under the int8 speedup and top-1
// agreement.
func measurePrecision(b *testing.B) benchfmt.PrecisionStats {
	// Throughput runs on a purpose-built DRAM-resident workload: the quick
	// suites fit in cache, where every tier is ALU-bound and equally fast.
	// The relaxed tiers are bandwidth plays — a 64-wide f64 feature row is 8
	// cache lines per gathered neighbor, f32 is 4, int8 is 1 — so the
	// measured ratio needs the dense operands well past LLC.
	const (
		bn   = 120_000
		bf   = 64
		bdeg = 10
	)
	rng := rand.New(rand.NewSource(7))
	bAdj := &sparse.CSR{Rows: bn, Cols: bn,
		RowPtr: make([]int, bn+1),
		Col:    make([]int, bn*bdeg),
		Val:    make([]float64, bn*bdeg)}
	for i := 0; i < bn; i++ {
		bAdj.RowPtr[i+1] = (i + 1) * bdeg
		cols := bAdj.Col[i*bdeg : (i+1)*bdeg]
		for k := range cols {
			cols[k] = rng.Intn(bn)
		}
		sort.Ints(cols)
		for k := range cols {
			bAdj.Val[i*bdeg+k] = 1.0 / bdeg
		}
	}
	bx := mat.Randn(bn, bf, 1, rng)
	rows := make([]int, bn)
	for i := range rows {
		rows[i] = i
	}
	nnz := bAdj.NNZ()

	bAdj32 := make([]float32, nnz)
	kernel.ToF32(bAdj32, bAdj.Val)
	bx32 := make([]float32, len(bx.Data))
	kernel.ToF32(bx32, bx.Data)
	bAdj8, bAdjScale := kernel.Quantize(bAdj.Val)
	bx8, bxScale := kernel.Quantize(bx.Data)

	out := mat.New(bn, bf)
	out32 := make([]float32, bn*bf)
	flops := 2 * float64(nnz) * float64(bf)
	f64St := measureOp(func() { bAdj.MulDenseRows(rows, bx, out) })
	f32St := measureOp(func() { bAdj.MulDenseRows32(rows, bAdj32, bx32, bf, out32) })
	int8St := measureOp(func() { bAdj.MulDenseRows8(rows, bAdj8, bx8, bf, bAdjScale*bxScale, out32) })

	// Accuracy at the fixed-depth operating point, on the trained headline
	// suite. The int8 tier re-scales activations per hop, exactly like the
	// serving engine.
	s := trainedSuite(b)
	g := s.DS.Graph
	adj := sparse.NormalizedAdjacency(s.DS.Graph.Adj, s.Model.Gamma)
	n, f := g.N(), g.F()
	rows = rows[:n]
	adj32 := make([]float32, len(adj.Val))
	kernel.ToF32(adj32, adj.Val)
	feat32 := make([]float32, len(g.Features.Data))
	kernel.ToF32(feat32, g.Features.Data)
	adj8, adjScale := kernel.Quantize(adj.Val)
	feat8, featScale := kernel.Quantize(g.Features.Data)
	K := s.Model.K
	stack64 := scalable.Propagate(adj, g.Features, K)

	stack32 := make([]*mat.Matrix, K+1)
	stack32[0] = g.Features
	cur := feat32
	for l := 1; l <= K; l++ {
		next := make([]float32, n*f)
		adj.MulDenseRows32(rows, adj32, cur, f, next)
		stack32[l] = widenF32(next, n, f)
		cur = next
	}

	stack8 := make([]*mat.Matrix, K+1)
	stack8[0] = g.Features
	act, deq := feat8, adjScale*featScale
	for l := 1; l <= K; l++ {
		next := make([]float32, n*f)
		adj.MulDenseRows8(rows, adj8, act, f, deq, next)
		stack8[l] = widenF32(next, n, f)
		if l < K {
			scale := kernel.ScaleFor(kernel.MaxAbsF32(next))
			q := make([]int8, len(next))
			kernel.QuantizeAtScale(q, next, scale)
			act, deq = q, adjScale*scale
		}
	}

	targets := s.TestSubset(200)
	logitsAt := func(stack []*mat.Matrix) *mat.Matrix {
		gathered := make([]*mat.Matrix, K+1)
		for l, m := range stack {
			gathered[l] = m.GatherRows(targets)
		}
		return s.Model.Classifiers[K].Logits(s.Model.Combiner.Combine(gathered, K))
	}
	ref := logitsAt(stack64)
	refPred := ref.ArgmaxRows()
	compare := func(got *mat.Matrix) (agree, maxDelta float64) {
		same := 0
		for i, p := range got.ArgmaxRows() {
			if p == refPred[i] {
				same++
			}
		}
		for i, v := range got.Data {
			if d := math.Abs(v - ref.Data[i]); d > maxDelta {
				maxDelta = d
			}
		}
		return float64(same) / float64(len(refPred)), maxDelta
	}
	agree32, delta32 := compare(logitsAt(stack32))
	agree8, delta8 := compare(logitsAt(stack8))
	if delta32 > delta8 {
		delta8 = delta32 // report the worst drift across relaxed tiers
	}

	gflops := func(st benchfmt.OpStats) float64 { return flops / float64(st.NsPerOp) }
	return benchfmt.PrecisionStats{
		Workload:          "DRAM-resident SpMM throughput + depth-K classification on flickr-like",
		Rows:              bn,
		F:                 bf,
		NNZ:               nnz,
		F64GFLOPS:         gflops(f64St),
		F32GFLOPS:         gflops(f32St),
		Int8GFLOPS:        gflops(int8St),
		F32SpeedupX:       float64(f64St.NsPerOp) / float64(f32St.NsPerOp),
		Int8SpeedupX:      float64(f64St.NsPerOp) / float64(int8St.NsPerOp),
		F32Top1Agreement:  agree32,
		Int8Top1Agreement: agree8,
		MaxAbsLogitDelta:  delta8,
	}
}

// BenchmarkPrecisionKernels reports the relaxed-tier kernel comparison as
// metrics; the JSON-recorded version feeding the CI gate lives in
// BenchmarkInferBaselineJSON.
func BenchmarkPrecisionKernels(b *testing.B) {
	var st benchfmt.PrecisionStats
	for i := 0; i < b.N; i++ {
		st = measurePrecision(b)
	}
	b.ReportMetric(st.F64GFLOPS, "f64-gflops")
	b.ReportMetric(st.F32SpeedupX, "f32-speedupX")
	b.ReportMetric(st.Int8SpeedupX, "int8-speedupX")
	b.ReportMetric(st.Int8Top1Agreement, "int8-top1")
}
