package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/serve"
	"repro/internal/synth"
)

// sizes is everything that differs between the real benchmark and the
// -smoke configuration the tests run.
type sizes struct {
	n      int           // serving graph nodes
	warm   time.Duration // discarded warm-up before the measured phase
	phase  time.Duration // measured phase: slices of load, each followed by the probe
	slice  time.Duration // one stretch of load; with a writer, one delta arrives half way through
	probe  time.Duration // one run of the probe
	builds int           // consecutive builds setup_s is the median of
	verify int           // requests replayed against the reference
	ladder int           // requests per shape in the traced layer ladder
	reps   int           // repetitions of each one-shot layer timing
}

func fullSizes(phase time.Duration) sizes {
	return sizes{n: 100_000, warm: 2 * time.Second, phase: phase, slice: time.Second, probe: 200 * time.Millisecond, builds: 3, verify: 2000, ladder: 1000, reps: 9}
}

func smokeSizes() sizes {
	return sizes{n: 2000, warm: 100 * time.Millisecond, phase: 300 * time.Millisecond, slice: 100 * time.Millisecond, probe: 20 * time.Millisecond, builds: 2, verify: 200, ladder: 40, reps: 3}
}

// workload is one traffic mix. The four differ in which layers carry the
// request; README.md has a paragraph on each.
type workload struct {
	name string
	why  string
	// point indexes the suite's NAI_d operating points: 0 is the speed-first
	// NAI1_d (TMin 1, TMax 2), 2 the accuracy-first NAI3_d (TMin 2, TMax 4).
	point int
	fan   int  // targets per request
	zipf  bool // targets drawn Zipf(1.1) instead of uniformly
	// oneConn marks a single caller: a batch-scoring job's batches already
	// use every core through internal/par.
	oneConn bool
	cache   int  // result-cache entries, 0 = off
	shards  int  // 0 = one core.Deployment, else a Router over HTTP workers
	writer  bool // deltas arrive during the measured phase, not after it
	slo     time.Duration
	// streamLen is the number of pre-generated requests; a phase that
	// outruns it wraps around.
	streamLen int
	// verifyCap bounds the verification sample where one reference answer
	// costs as much as a request (0 = sizes.verify).
	verifyCap int
}

var workloads = []workload{
	{
		name: "point_shallow", point: 0, fan: 1, slo: 5 * time.Millisecond, streamLen: 1 << 17,
		why: "single-node reads, 2-hop ball is 3% of the graph: HTTP, admission, coalescer, BFS and extract carry the request",
	},
	{
		name: "batch_deep", point: 2, fan: 64, oneConn: true, slo: time.Second, streamLen: 256, verifyCap: 6,
		why: "64-target batches from one caller, 4-hop ball is the whole graph: SpMM, par splitting and early exit carry the request",
	},
	{
		name: "zipf_delta", point: 0, fan: 1, zipf: true, cache: 4096, writer: true, slo: 5 * time.Millisecond, streamLen: 1 << 18,
		why: "Zipf(1.1) reads through the result cache beside a 1/s delta writer: hits, cache flushes and the write lock carry the request",
	},
	{
		name: "sharded_http", point: 0, fan: 8, shards: 2, writer: true, slo: 25 * time.Millisecond, streamLen: 1 << 15, verifyCap: 1000,
		why: "8-target reads through a router over two loopback HTTP shard workers beside the writer: partition, halo, fan-out and the wire codec carry the request",
	},
}

// conns is the closed loop's client count: min(nproc, 4) keep-alive
// connections, so the generator never asks for more parallelism than the box
// has to give both sides of the socket.
func (w workload) conns() int {
	if w.oneConn {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

// Delta shape: every delta appends deltaNodes nodes with deltaEdges edges
// each to nodes of the original graph.
const (
	deltaNodes = 2
	deltaEdges = 10
	// maxDeltas bounds the pre-generated delta stream (warm-up plus a
	// 60-second phase at one delta per slice, with room).
	maxDeltas = 96
)

// fixture is the benchmark's input: one trained model, one serving graph
// and the operating points. Nothing in it is timed; the program under test
// receives only clones of the graph, the model and the request bytes.
type fixture struct {
	seed   int64
	model  *core.Model
	points [3]bench.NAISetting
	graph  *graph.Graph // pristine: every consumer gets a Clone
	test   []int        // unseen test nodes, the read universe
	deltas *deltaStream // the writer's input, applied in order
}

// newFixture trains the quick products-like SGC model (deterministic, its own
// fixed seed) and generates the n-node serving graph from seed.
func newFixture(seed int64, n int) (*fixture, error) {
	suite, err := bench.GetSuite(bench.QuickConfig(), "products-like", "sgc")
	if err != nil {
		return nil, fmt.Errorf("training the fixture model: %w", err)
	}
	cfg := synth.ProductsLike(seed)
	cfg.N = n
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating the serving graph: %w", err)
	}
	fx := &fixture{
		seed:   seed,
		model:  suite.Model,
		points: suite.SettingsDistance(),
		graph:  ds.Graph,
		test:   ds.Split.Test,
	}
	fx.deltas = fx.newDeltas()
	return fx, nil
}

// options is the NAP_d operating point a workload serves at.
func (fx *fixture) options(w workload) core.InferenceOptions {
	p := fx.points[w.point]
	return core.InferenceOptions{Mode: core.ModeDistance, Ts: p.Ts, TMin: p.TMin, TMax: p.TMax}
}

// rng derives an independent generator per (seed, purpose), so one stream's
// length never shifts another's contents.
func (fx *fixture) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(fx.seed*1_000_003 + purpose))
}

// stream is a pre-generated request sequence with its POST /infer bodies
// already encoded, so the measured loop does no JSON encoding of its own.
type stream struct {
	fan     int
	targets []int // count × fan node ids
	bodies  [][]byte
}

func (s *stream) count() int { return len(s.bodies) }

// nodes returns request i's targets; i wraps around the stream.
func (s *stream) nodes(i int) []int {
	i %= s.count()
	return s.targets[i*s.fan : (i+1)*s.fan]
}

func (s *stream) body(i int) []byte { return s.bodies[i%s.count()] }

// requests generates workload w's read stream: a pure function of the
// fixture seed and the workload's position in the table.
func (fx *fixture) requests(w workload, index int) *stream {
	count := w.streamLen
	s := &stream{fan: w.fan, targets: make([]int, 0, count*w.fan), bodies: make([][]byte, count)}
	if w.zipf {
		s.targets = bench.ZipfTargets(fx.seed*1_000_003+int64(index), 1.1, fx.test, count*w.fan)
	} else {
		rng := fx.rng(int64(index))
		seen := make(map[int]bool, w.fan)
		for i := 0; i < count; i++ {
			clear(seen)
			for len(seen) < w.fan { // distinct within a request
				v := fx.test[rng.Intn(len(fx.test))]
				if !seen[v] {
					seen[v] = true
					s.targets = append(s.targets, v)
				}
			}
		}
	}
	for i := range s.bodies {
		s.bodies[i] = mustJSON(serve.InferRequest{Nodes: s.nodes(i)})
	}
	return s
}

// deltaStream is the writer's pre-generated input: the deltas themselves
// (for the reference graph) and their POST /nodes bodies. Delta k appends
// nodes n+2k and n+2k+1, so the stream is only valid posted in order against
// a graph that started with n nodes.
type deltaStream struct {
	deltas []graph.Delta
	bodies [][]byte
}

func (fx *fixture) newDeltas() *deltaStream {
	rng := fx.rng(1 << 20)
	n, f := fx.graph.N(), fx.graph.F()
	ds := &deltaStream{}
	for k := 0; k < maxDeltas; k++ {
		first := n + k*deltaNodes
		d := graph.Delta{Features: mat.Randn(deltaNodes, f, 1, rng), Labels: make([]int, deltaNodes)}
		req := serve.NodesRequest{Labels: d.Labels}
		for i := 0; i < deltaNodes; i++ {
			req.Features = append(req.Features, d.Features.Row(i))
			for e := 0; e < deltaEdges; e++ {
				u, v := first+i, rng.Intn(n)
				d.Src, d.Dst = append(d.Src, u), append(d.Dst, v)
				req.Edges = append(req.Edges, [2]int{u, v})
			}
		}
		ds.deltas = append(ds.deltas, d)
		ds.bodies = append(ds.bodies, mustJSON(req))
	}
	return ds
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers are encoded
	}
	return b
}
