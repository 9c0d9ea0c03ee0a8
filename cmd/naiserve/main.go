// Command naiserve runs the NAI serving daemon: it trains (or loads) a
// model, deploys it against the serving graph, and exposes the
// internal/serve HTTP JSON API — inference over /infer, online
// graph growth over /nodes and /edges, and observability over /stats,
// /healthz, Prometheus text-format metrics at /metrics and recent request
// traces at /debug/traces (both also served by -shard-worker processes;
// see ARCHITECTURE.md, "Observability"). -log-format {text,json} selects
// the structured-log encoding, -trace-slow the slow-request log threshold,
// and -debug-addr serves net/http/pprof on a separate listener. See
// ARCHITECTURE.md for the request path. Every request is its own backend
// call: nothing waits for batch mates, and a client that wants Algorithm 1's
// per-batch costs shared sends its targets as one request.
//
// With -shards the daemon serves from a pool of worker processes, each a
// deployment over its own copy of the whole graph, behind a router that sends
// each request whole to the next up worker in round-robin order — answers
// stay bit-identical to the single deployment (see ARCHITECTURE.md, "Sharded
// serving" and "Distributed sharding"). A worker process serves the binary
// shard protocol, -shard-worker being only its label:
//
//	naiserve -shard-worker 0 -addr :9000
//
// and a router process dials a comma-separated list of every worker:
//
//	naiserve -shards localhost:9000,localhost:9001,otherhost:9000 -addr :8080
//
// A pool buys another process's memory and cores and a failure domain; a
// deployment already serves concurrent callers, so P in-process workers would
// only hold P copies of the graph and its layers. -shards therefore takes no
// worker count but 1, the single deployment and the default.
//
// Every worker answers for every node, so more addresses are both more
// capacity and more redundancy. The router fails over transparently when a
// worker dies (503 only when every worker is down), logs each delta, and
// replays the deltas a worker has missed when it is next called or probed — see ARCHITECTURE.md, "Failure semantics",
// including the zero-downtime worker replacement procedure built on
// -drain-timeout below.
//
// Workers bootstrap deterministically from the same model/graph flags as
// the router (the router verifies the fit at startup; -tmax is the
// router's alone), so no bulk state
// transfer happens. The router retries transient worker failures with
// full-jitter backoff (-shard-retries), marks unreachable workers down
// (their traffic moves to the others; /healthz degrades only when none is
// left), and its background probe (-shard-health-interval) replays missed
// deltas to workers that restart — a worker rejoin never requires
// restarting the router. On SIGTERM a worker drains instead of dropping
// requests: it refuses new shard RPCs (so the router diverts to the other
// workers), finishes in-flight work within -drain-timeout, then exits.
//
// With -precision {f64,f32,int8} propagation runs at a relaxed precision
// tier: f32 halves the propagation bandwidth, int8 is f32 over features
// stored as int8 with one symmetric scale per row (a quarter of f32's copy;
// only hop 1 reads them). f64 stays the bit-pinned default; the
// int8 tier's accuracy delta is benchmark/'s core.int8_top1_agree_share, and
// what each tier must keep is pinned by the precision-equivalence suites
// (internal/{core,shard,serve}/precision_test.go). The whole fleet serves one
// tier — a router rejects workers bootstrapped at a different tier at
// handshake, and a racing mismatched request is a 409. /stats reports the
// active tier.
//
// With -cache-size N (default 4096 entries; 0 disables) each node's final
// prediction and realized depth is cached across requests, so hot nodes
// under skewed traffic skip the inference pipeline entirely; graph deltas
// invalidate stale entries exactly, keeping answers bit-identical to
// uncached serving (see ARCHITECTURE.md, "Result cache").
//
// Overload control (see ARCHITECTURE.md, "Overload control"): -max-pending
// bounds the targets in backend calls — beyond it requests get an immediate
// 429 with a Retry-After instead of parking (0 disables). -default-deadline
// is the per-request deadline when the client sends no X-Deadline-Ms
// header; client deadlines are clamped to -max-deadline. -tenant-quotas
// gives each X-Tenant its own token-bucket rate (in targets/second — one
// token per requested node) and a weighted-fair share of the admission
// budget ("tenant=rate[:burst[:weight]]", "*" sets the default).
// -shed-mode keeps the daemon answering under sustained overload: cache
// hits and fixed-depth requests are served, adaptive cache misses are
// shed with 429 — except one probe per interval, whose call lets the
// overload detector see the pressure clear.
//
// Usage:
//
//	naiserve -dataset flickr-like -mode distance -ts-quantile 0.3 -addr :8080
//	naiserve -load model.json -graph serving.graph -mode fixed
//	naiserve -dataset products-like -shards localhost:9000,localhost:9001 -cache-size 65536
//	naiserve -max-pending 8192 -default-deadline 500ms -tenant-quotas 'paid=1000::4,*=100' -shed-mode
//
// Endpoints:
//
//	POST /infer   {"nodes":[3,17]}                 → {"preds":[...],"depths":[...]}
//	POST /nodes   {"features":[[...]],"labels":[0]} → {"first_id":N,"count":1,...}
//	POST /edges   {"edges":[[0,42]]}                → {"rows_dirtied":2}
//	GET  /stats, GET /healthz, GET /metrics, GET /debug/traces
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served at -debug-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/synth"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataset := flag.String("dataset", "flickr-like", "synthetic dataset preset to train and serve")
	model := flag.String("model", "sgc", "base model (sgc, sign, s2gc, gamlp)")
	load := flag.String("load", "", "load a trained model from this JSON file instead of training")
	graphFile := flag.String("graph", "", "serve this nai-graph file instead of the synthetic dataset (requires -load)")
	mode := flag.String("mode", "distance", "NAP mode: fixed, distance, gate")
	tsQuantile := flag.Float64("ts-quantile", 0.3, "distance threshold as a validation-distance quantile (distance mode)")
	tmin := flag.Int("tmin", 1, "minimum propagation depth")
	tmax := flag.Int("tmax", 0, "maximum propagation depth (0 = K)")
	shardsFlag := flag.String("shards", "1", "worker pool: a comma-separated list of every worker address (host:port,...) sends each request to one of the worker processes started with -shard-worker, each holding the whole graph; 1 serves from this process's own deployment")
	shardWorker := flag.Int("shard-worker", -1, "serve as a worker process labelled with this number (≥ 0); exposes the binary shard protocol on -addr")
	shardRetries := flag.Int("shard-retries", 2, "retry rounds over the workers on transient transport failures (distributed mode)")
	probeInterval := flag.Duration("shard-health-interval", time.Second, "background worker health-probe interval with -shards (0 disables; probes refresh per-worker gauges and replay missed deltas to restarted workers)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget on SIGINT/SIGTERM: a -shard-worker stops accepting new RPCs immediately and finishes in-flight work within this window before exiting")
	cacheSize := flag.Int("cache-size", 4096, "per-node result-cache capacity in entries (0 disables; delta-aware invalidation keeps answers exact)")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBody, "max HTTP request body size in bytes")
	maxPending := flag.Int("max-pending", 4096, "admission budget: max targets in backend calls before 429s (0 disables)")
	defaultDeadline := flag.Duration("default-deadline", 2*time.Second, "per-request deadline when the client sends no X-Deadline-Ms (0 disables)")
	maxDeadline := flag.Duration("max-deadline", 30*time.Second, "cap on client-requested X-Deadline-Ms deadlines (0 = no cap)")
	tenantQuotas := flag.String("tenant-quotas", "", "per-tenant quotas in targets/sec, e.g. 'free=100:200,paid=1000:2000:4,*=50' (tenant=rate[:burst[:weight]]; empty admits all)")
	precision := flag.String("precision", "f64", "propagation precision tier: f64 (bit-pinned reference), f32, int8 (f32 over features quantized per row; accuracy delta: benchmark/'s core.int8_top1_agree_share). Router and workers must agree — a mismatch is rejected at handshake")
	shedMode := flag.Bool("shed-mode", false, "degraded mode: when overloaded, serve cache hits and fixed-depth work, shed adaptive cache misses with 429")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "HTTP server read timeout")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "HTTP server write timeout")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this extra address (empty disables)")
	traceRing := flag.Int("trace-ring", 64, "recent completed traces kept for GET /debug/traces")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "log any request slower than this as a slow-request record (0 disables)")
	quick := flag.Bool("quick", true, "shrink dataset and training")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fail(err)
	}
	slog.SetDefault(logger)

	// Quotas, the operating mode and the shard layout are parsed before any
	// training happens: a typo in any should fail the launch, not a request
	// hours later.
	quotas, err := qos.ParseQuotas(*tenantQuotas)
	if err != nil {
		fail(err)
	}
	napMode, err := core.ParseMode(*mode, *tsQuantile)
	if err != nil {
		fail(err)
	}
	workerAddrs, err := parseShards(*shardsFlag)
	if err != nil {
		fail(err)
	}
	prec, err := kernel.ParsePrecision(*precision)
	if err != nil {
		fail(err)
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed

	var (
		g  *graph.Graph
		ds *synth.Dataset
		m  *core.Model
	)
	if *load != "" {
		if m, err = core.LoadModelFile(*load); err != nil {
			fail(err)
		}
		logger.Info("loaded model", "k", m.K, "path", *load)
	}
	if *graphFile != "" {
		if m == nil {
			fail(fmt.Errorf("-graph requires -load (no training split in a graph file)"))
		}
		if g, err = graph.ReadGraphFile(*graphFile); err != nil {
			fail(err)
		}
	} else {
		dcfg, derr := cfg.Dataset(*dataset)
		if derr != nil {
			fail(derr)
		}
		if ds, err = synth.Generate(dcfg); err != nil {
			fail(err)
		}
		g = ds.Graph
		if m == nil {
			opt := cfg.TrainOptions(*model)
			logger.Info("training model", "model", *model, "k", opt.K, "dataset", dcfg.Name)
			if m, err = core.Train(g, ds.Split, opt); err != nil {
				fail(err)
			}
		}
	}

	// Worker mode: bootstrap one worker from the same (model, graph) inputs
	// the router holds — the deterministic rebuild is the state transfer —
	// and serve the binary shard protocol. The operating point, T_s tuning,
	// caching and overload control all live in the router process; a
	// worker is a deployment over the whole graph, whatever depth the
	// router serves.
	if *shardWorker >= 0 {
		w, werr := shard.NewWorker(m, g, shard.Config{Precision: prec}, *shardWorker)
		if werr != nil {
			fail(werr)
		}
		h := w.Health()
		logger.Info("shard worker listening",
			"worker", *shardWorker, "addr", *addr,
			"nodes", h.Nodes, "precision", h.Precision.String())
		// The worker owns its own observability surface — /metrics and
		// /debug/traces beside the shard protocol endpoints — with traces
		// started under router-supplied ids so the halves stitch.
		wobs := obs.New(obs.Options{RingSize: *traceRing, SlowThreshold: *traceSlow, Logger: logger})
		startDebugServer(logger, *debugAddr)
		// On SIGTERM the worker drains: StartDrain makes every shard RPC
		// answer 503 (the router diverts to the other workers and
		// the probe takes this one out of rotation), then Shutdown lets
		// in-flight requests finish inside the -drain-timeout budget.
		runServer(logger, &http.Server{
			Addr:         *addr,
			Handler:      shard.WorkerHandlerObs(w, wobs),
			ReadTimeout:  *readTimeout,
			WriteTimeout: *writeTimeout,
		}, *drainTimeout, w.StartDrain)
		return
	}

	// The global deployment is needed as the backend when unsharded, and
	// for T_s tuning in distance mode (the tuner propagates the validation
	// nodes' balls through the global normalized adjacency, at f64 whatever
	// the tier, so a tuning-only deployment is never lowered to the serving
	// tier). In sharded fixed/gate modes it is skipped entirely — the
	// workers hold their own.
	var dep *core.Deployment
	if workerAddrs == nil || napMode == core.ModeDistance {
		if dep, err = core.NewDeployment(m, g); err != nil {
			fail(err)
		}
		if workerAddrs == nil {
			dep.SetPrecision(prec)
		}
	}

	iopt := core.InferenceOptions{Mode: napMode, TMin: *tmin, TMax: m.K}
	if *tmax > 0 {
		iopt.TMax = *tmax
	}
	if napMode == core.ModeDistance {
		if ds == nil {
			fail(fmt.Errorf("distance mode needs a validation split to tune T_s; serve a dataset or use -mode fixed/gate"))
		}
		ts, err := dep.DistanceQuantile(ds.Split.Val, 1, *tsQuantile)
		if err != nil {
			fail(err)
		}
		iopt.Ts = ts
		logger.Info("tuned distance threshold", "ts", iopt.Ts, "quantile", *tsQuantile)
	}

	// Fail fast on a misconfigured operating point (bad depth bounds, gate
	// mode without trained gates): better a startup error than a healthy-
	// looking daemon answering every request with 400.
	if err := iopt.Validate(m); err != nil {
		fail(err)
	}

	// The backend: the deployment itself, or — with -shards — a router over
	// whole-graph worker processes behind the HTTP transport. The router
	// keeps only the graph's adjacency: g's features and labels, and a
	// distance-mode tuning deployment with its caches, are left for the GC.
	var backend serve.Backend = dep
	if workerAddrs != nil {
		cfg := shard.Config{Shards: len(workerAddrs), Retries: *shardRetries, Precision: prec}
		rt, err := shard.NewRouterTransport(m, g, cfg, shard.NewHTTPTransport(workerAddrs, shard.HTTPTransportConfig{}))
		if err != nil {
			fail(fmt.Errorf("dialing shard workers: %w (is a worker up, built from the same model/graph flags?)", err))
		}
		// /stats and /metrics read every worker's scratch and layer counters
		// off its last probe.
		defer rt.Close()
		if *probeInterval > 0 {
			rt.StartHealthProbe(*probeInterval)
		}
		logger.Info("sharded serving",
			"workers", rt.Shards(), "addrs", orNone(strings.Join(workerAddrs, ",")),
			"precision", prec.String(),
			"retries", *shardRetries, "health_interval", *probeInterval)
		backend = rt
	}

	srv := serve.NewBackend(backend, serve.Config{
		Opt: iopt, MaxBody: *maxBody,
		CacheSize:  *cacheSize,
		MaxPending: *maxPending, DefaultDeadline: *defaultDeadline,
		MaxDeadline: *maxDeadline, Quotas: quotas, Shed: *shedMode,
		TraceRing: *traceRing, SlowTrace: *traceSlow, Logger: logger})
	defer srv.Close()
	logger.Info("overload control",
		"max_pending", *maxPending, "default_deadline", *defaultDeadline,
		"max_deadline", *maxDeadline, "quotas", orNone(*tenantQuotas), "shed", *shedMode)
	// Report the cache configuration alongside the shard report above:
	// both describe how much serving state this daemon retains per answer.
	if *cacheSize > 0 {
		policy := "NAP mode: any delta flushes (stationary state is global)"
		if iopt.Mode == core.ModeFixed {
			policy = fmt.Sprintf("fixed mode: deltas evict the radius-%d dirty ball", iopt.TMax)
		}
		logger.Info("result cache", "entries", *cacheSize, "policy", policy)
	} else {
		logger.Info("result cache disabled")
	}
	adj := backend.Adjacency()
	logger.Info("serving",
		"nodes", adj.Rows, "edges", adj.NNZ()/2, "addr", *addr, "mode", *mode,
		"shards", *shardsFlag, "precision", prec.String())
	startDebugServer(logger, *debugAddr)
	runServer(logger, &http.Server{
		Addr:         *addr,
		Handler:      srv.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}, *drainTimeout, nil)
}

// newLogger builds the process logger from -log-format. Logs go to stderr
// in logfmt-style text or one-JSON-object-per-line.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q: want text or json", format)
	}
}

// startDebugServer serves net/http/pprof (registered on DefaultServeMux by
// the pprof import) on its own listener, kept off the public mux so
// profiling endpoints are only reachable where -debug-addr points.
func startDebugServer(logger *slog.Logger, addr string) {
	if addr == "" {
		return
	}
	logger.Info("debug server listening", "addr", addr, "endpoints", "/debug/pprof/")
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			logger.Error("debug server failed", "err", err)
		}
	}()
}

// runServer serves until the listener fails or SIGINT/SIGTERM asks for a
// graceful drain; both the daemon and worker modes end here. preShutdown
// (optional) runs before Shutdown — a worker passes StartDrain so new shard
// RPCs are refused (503, diverting the router to other workers) while
// in-flight ones finish inside the drain budget.
func runServer(logger *slog.Logger, hs *http.Server, drain time.Duration, preShutdown func()) {
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fail(err)
	case <-sig:
		logger.Info("draining", "timeout", drain)
		if preShutdown != nil {
			preShutdown()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Warn("drain timeout exceeded, exiting with requests in flight", "err", err)
			return
		}
		logger.Info("drained cleanly")
	}
}

// parseShards reads the -shards flag: 1 is the single deployment (nil), a
// comma-separated list every worker process's address. Any other integer is
// rejected: an in-process pool would hold P copies of the graph for no
// parallelism a deployment lacks.
func parseShards(s string) (addrs []string, err error) {
	if n, aerr := strconv.Atoi(s); aerr == nil {
		if n != 1 {
			return nil, fmt.Errorf("-shards %d: a worker pool is processes, not a count; start each worker with -shard-worker i and list their addresses (host:port,...), or give 1 to serve from this process's own deployment", n)
		}
		return nil, nil
	}
	if strings.Contains(s, "|") {
		return nil, fmt.Errorf("-shards %q: workers are not grouped with '|'; list every worker with commas", s)
	}
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a == "" {
			return nil, fmt.Errorf("-shards %q: empty worker address", s)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "naiserve:", err)
	os.Exit(1)
}
