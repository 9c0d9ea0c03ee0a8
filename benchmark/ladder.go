package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// shape is one request geometry the ladder replays: the first requests of a
// workload's own stream, at that workload's operating point.
type shape struct {
	name string
	w    workload
	reqs *stream
	n    int // requests replayed per rung
}

// ladder carries the state shared by the ladder's sections.
type ladder struct {
	fx  *fixture
	sz  sizes
	tr  *tracer
	out map[string]float64

	point, fan8, deep shape
}

// climb runs the traced layer ladder and returns every per-layer metric that
// does not need a measured phase. It is the same for every workload — each
// traced run prices every layer, so a layer's numbers can be read beside
// whichever workload's end-to-end numbers they should explain — and it builds
// its own stacks, one section at a time so their memory is never held
// together: shard over HTTP, shard in-process, then the single deployment.
func climb(fx *fixture, sz sizes, hdr header, outDir string) (map[string]float64, error) {
	l := &ladder{fx: fx, sz: sz, tr: newTracer(), out: map[string]float64{}}
	for i, w := range workloads {
		switch w.name {
		case "point_shallow":
			l.point = shape{name: "point", w: w, reqs: fx.requests(w, i), n: sz.ladder}
		case "sharded_http":
			l.fan8 = shape{name: "fan8", w: w, reqs: fx.requests(w, i), n: max(sz.ladder/2, 1)}
		case "batch_deep":
			l.deep = shape{name: "deep", w: w, reqs: fx.requests(w, i), n: max(sz.ladder/125, 3)}
		}
	}
	for _, section := range []func() error{l.shardHTTP, l.shardLocal, l.single, l.kernels} {
		if err := section(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	l.derive()
	if err := l.tr.write(hdr, outDir); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	return l.out, nil
}

// timed is the median wall time of reps calls of fn, in seconds.
func timed(reps int, fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// serveRungs replays sh through st's HTTP endpoint, then through the serve
// layer directly: the two rungs above the backend.
func (l *ladder) serveRungs(sh shape, st *stack) error {
	err := l.tr.rung(sh.name, "serve.http", "", sh.n, func(i int) error {
		_, err := st.infer(sh.reqs.body(i))
		return err
	})
	if err != nil {
		return err
	}
	return l.tr.rung(sh.name, "serve.classify", "serve.http", sh.n, func(i int) error {
		_, _, err := st.srv.ClassifyContext(context.Background(), sh.reqs.nodes(i), "")
		return err
	})
}

// shardHTTP prices the sharded build and the fan8 ladder's top rungs: HTTP
// front, serve, and Router.Infer over the HTTP transport.
func (l *ladder) shardHTTP() error {
	w := l.fan8.w
	g := l.fx.graph.Clone()
	cfg := shard.Config{Shards: w.shards, Radius: l.fx.options(w).TMax}

	var asg *shard.Assignment
	var err error
	if l.out["shard.partition_s"], err = timed(3, func() (err error) {
		asg, err = shard.Partition(g, w.shards, shard.StrategyBFS)
		return err
	}); err != nil {
		return err
	}
	touched := 0
	for i := 0; i < l.fan8.n; i++ {
		seen := map[int32]bool{}
		for _, v := range l.fan8.reqs.nodes(i) {
			seen[asg.Owner[v]] = true
		}
		touched += len(seen)
	}
	l.out["shard.shards_touched_mean"] = float64(touched) / float64(l.fan8.n)

	// The same construction buildStack runs, with each step timed.
	st := &stack{client: newClient(2)}
	defer st.close()
	addrs := make([]string, w.shards)
	p := 0
	if l.out["shard.worker_build_s"], err = timed(w.shards, func() error {
		wk, err := shard.NewWorker(l.fx.model, g, cfg, p)
		if err != nil {
			return err
		}
		ln, err := listen(shard.WorkerHandler(wk))
		if err != nil {
			return err
		}
		st.workers = append(st.workers, ln)
		addrs[p] = ln.url
		p++
		return nil
	}); err != nil {
		return err
	}
	if l.out["shard.router_build_s"], err = timed(1, func() (err error) {
		st.router, err = shard.NewRouterTransport(l.fx.model, g, cfg, shard.NewHTTPTransport(addrs, shard.HTTPTransportConfig{}))
		return err
	}); err != nil {
		return err
	}
	halo := 0
	for _, s := range st.router.Sizes() {
		halo += s.Halo
	}
	l.out["shard.halo_share"] = float64(halo) / float64(g.N())

	opt := l.fx.options(w)
	st.srv = serve.NewBackend(st.router, serveConfig(opt, 0))
	if st.front, err = listen(st.srv.Handler()); err != nil {
		return err
	}
	if err := l.serveRungs(l.fan8, st); err != nil {
		return err
	}
	if err := l.tr.rung("fan8", "shard.router_http", "serve.classify", l.fan8.n, func(i int) error {
		_, err := st.router.Infer(l.fan8.reqs.nodes(i), opt)
		return err
	}); err != nil {
		return err
	}
	ds := l.fx.deltas
	k := 0
	secs, err := timed(l.sz.reps, func() error {
		_, err := st.router.ApplyDelta(ds.deltas[k])
		k++
		return err
	})
	l.out["shard.delta_ms"] = secs * 1000
	return err
}

// shardLocal is the rung beneath the HTTP transport: the same router over
// in-process workers, so the difference is the RPC.
func (l *ladder) shardLocal() error {
	w := l.fan8.w
	opt := l.fx.options(w)
	rt, err := shard.NewRouter(l.fx.model, l.fx.graph.Clone(), shard.Config{Shards: w.shards, Radius: opt.TMax})
	if err != nil {
		return err
	}
	defer rt.Close()
	return l.tr.rung("fan8", "shard.router_local", "shard.router_http", l.fan8.n, func(i int) error {
		_, err := rt.Infer(l.fan8.reqs.nodes(i), opt)
		return err
	})
}

// single prices one core.Deployment: its build, the three request shapes
// down to the kernels, the precision tiers, the cache and the write path.
func (l *ladder) single() error {
	fx := l.fx
	g := fx.graph.Clone()
	var dep *core.Deployment
	var err error
	if l.out["core.newdeployment_s"], err = timed(3, func() (err error) {
		dep, err = core.NewDeployment(fx.model, g)
		return err
	}); err != nil {
		return err
	}

	// fan8 bottoms out here: the engine beneath the router.
	if err := l.engineRungs(l.fan8, dep, "shard.router_local"); err != nil {
		return err
	}
	// point and deep are served by this deployment from the HTTP front down.
	for _, sh := range []shape{l.point, l.deep} {
		st := &stack{client: newClient(2), dep: dep}
		st.srv = serve.New(dep, serveConfig(fx.options(sh.w), 0))
		if st.front, err = listen(st.srv.Handler()); err != nil {
			return err
		}
		err = l.serveRungs(sh, st)
		st.close()
		if err != nil {
			return err
		}
		if err := l.engineRungs(sh, dep, "serve.classify"); err != nil {
			return err
		}
	}
	// Allocation per point inference: TotalAlloc around a quiet loop.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	opt := fx.options(l.point.w)
	for i := 0; i < l.point.n; i++ {
		if _, err := dep.Infer(l.point.reqs.nodes(i), opt); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms)
	l.out["core.alloc_kb_per_infer_point"] = float64(ms.TotalAlloc-before) / 1024 / float64(l.point.n)

	// A cached node: the request ends in the cache before the coalescer.
	hit := &stack{client: newClient(2), dep: dep}
	hit.srv = serve.New(dep, serveConfig(opt, 4096))
	if hit.front, err = listen(hit.srv.Handler()); err != nil {
		return err
	}
	err = l.tr.rung("point", "serve.http_hit", "", l.point.n, func(int) error {
		_, err := hit.infer(l.point.reqs.body(0))
		return err
	})
	hit.close()
	if err != nil {
		return err
	}

	// Relaxed tiers on the deep shape, then back to the reference tier.
	deepOpt := fx.options(l.deep.w)
	ref := make([]*core.Result, l.deep.n)
	for i := range ref {
		if ref[i], err = dep.Infer(l.deep.reqs.nodes(i), deepOpt); err != nil {
			return err
		}
	}
	for _, tier := range []kernel.Precision{kernel.PrecisionF32, kernel.PrecisionInt8} {
		secs, _ := timed(1, func() error { dep.SetPrecision(tier); return nil })
		agree, total := 0, 0
		if err := l.tr.rung("deep", "core.infer_"+tier.String(), "", l.deep.n, func(i int) error {
			res, err := dep.Infer(l.deep.reqs.nodes(i), deepOpt)
			if err != nil {
				return err
			}
			for k, p := range res.Pred {
				total++
				if p == ref[i].Pred[k] {
					agree++
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if tier == kernel.PrecisionInt8 {
			l.out["core.setprecision_int8_s"] = secs
			l.out["core.int8_top1_agree_share"] = float64(agree) / float64(total)
		}
	}

	// The write path, top rung first; the delta stream has to be applied in
	// order, so each rung takes the next reps deltas.
	ds := fx.deltas
	next := 0
	deltas := func(name string, apply func(k int) error) error {
		secs, err := timed(l.sz.reps, func() error {
			err := apply(next)
			next++
			return err
		})
		l.out[name] = secs * 1000
		return err
	}
	if err := deltas("core.delta_int8_ms", func(k int) error {
		_, err := dep.ApplyDelta(ds.deltas[k])
		return err
	}); err != nil {
		return err
	}
	dep.SetPrecision(kernel.PrecisionF64)
	wst := &stack{client: newClient(2), dep: dep}
	wst.srv = serve.New(dep, serveConfig(opt, 0))
	if wst.front, err = listen(wst.srv.Handler()); err != nil {
		return err
	}
	err = deltas("serve.delta_ms", func(k int) error { return wst.addNodes(ds.bodies[k]) })
	wst.close()
	if err != nil {
		return err
	}
	if err := deltas("core.delta_ms", func(k int) error {
		_, err := dep.ApplyDelta(ds.deltas[k])
		return err
	}); err != nil {
		return err
	}
	// The bottom rung gets a graph of its own, so delta 0 is valid again.
	bare := fx.graph.Clone()
	next = 0
	return deltas("graph.apply_delta_ms", func(k int) error {
		_, err := bare.ApplyDelta(ds.deltas[k])
		return err
	})
}

// engineRungs replays sh through dep.Infer and then through the calls Infer
// makes, in Infer's order with Infer's arguments: the supporting-set BFS, the
// sub-CSR extract and one SpMM per hop. The replay never exits early, so on
// deep requests it does a little more SpMM than Infer did; what it leaves
// unexplained of Infer's time is decide, classify and scratch handling.
func (l *ladder) engineRungs(sh shape, dep *core.Deployment, above string) error {
	opt := l.fx.options(sh.w)
	depth, targets, fpMACs := 0, 0, 0
	if err := l.tr.rung(sh.name, "core.infer", above, sh.n, func(i int) error {
		res, err := dep.Infer(sh.reqs.nodes(i), opt)
		if err != nil {
			return err
		}
		for _, d := range res.Depths {
			depth += d
		}
		targets += len(res.Depths)
		fpMACs += res.MACs.FeatureProcessing()
		return nil
	}); err != nil {
		return err
	}
	l.out["core.mean_depth_"+sh.name] = float64(depth) / float64(targets)
	l.out["core.fp_macs_per_target_"+sh.name] = float64(fpMACs) / float64(targets)
	if sh.name == "deep" {
		// Read before anything else allocates: a collection empties the pool.
		l.out["core.scratch_mb"] = float64(dep.ScratchBytes()) / (1 << 20)
	}

	g := dep.Graph
	n, f := g.N(), g.F()
	visited := make([]bool, n)
	toLocal := graph.NewIndex(n)
	var sub sparse.CSR
	var localRows []int
	ball := 0
	for i := 0; i < sh.n; i++ {
		// The nodes the answer depends on: the radius-TMax ball. Infer's own
		// BFS stops one hop short, because hop 1 reads neighbor features
		// straight from the full matrix.
		ball += len(graph.Ball(g.Adj, sh.reqs.nodes(i), opt.TMax))
		t0 := time.Now()
		nested := graph.SupportingSetsScratch(g.Adj, sh.reqs.nodes(i), opt.TMax-1, visited)
		t1 := time.Now()
		l.tr.record(sh.name, "graph.bfs", "core.infer", i, t0, t1)

		support := nested[0]
		graph.IndexSet(support, toLocal)
		locals := make([]*mat.Matrix, opt.TMax+1)
		for hop := 1; hop <= opt.TMax; hop++ {
			locals[hop] = mat.New(len(support), f)
		}
		t0 = time.Now()
		if opt.TMax >= 2 {
			dep.Adj.ExtractRowsInto(nested[1], toLocal, len(support), &sub)
		}
		t1 = time.Now()
		l.tr.record(sh.name, "sparse.extract", "core.infer", i, t0, t1)

		t0 = time.Now()
		for hop := 1; hop <= opt.TMax; hop++ {
			if hop == 1 {
				dep.Adj.MulDenseRowsCompact(nested[0], g.Features, locals[1])
				continue
			}
			localRows = graph.LocalizeSet(nested[hop-1], toLocal, localRows)
			sub.MulDenseRows(localRows, locals[hop-1], locals[hop])
		}
		t1 = time.Now()
		l.tr.record(sh.name, "sparse.spmm", "core.infer", i, t0, t1)
		graph.ResetIndex(support, toLocal)
	}
	l.out["graph.ball_"+sh.name+"_nodes"] = float64(ball) / float64(sh.n)
	return nil
}

// kernels times what has no request around it: one full-graph SpMM hop per
// precision tier, the nnz-balanced split, the cache's two operations and the
// load generator's own round trip.
func (l *ladder) kernels() error {
	g := l.fx.graph
	adj := sparse.NormalizedAdjacency(g.Adj, l.fx.model.Gamma)
	n, f := g.N(), g.F()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	out := mat.New(n, f)
	macs := 0
	secs, _ := timed(l.sz.reps, func() error { macs = adj.MulDenseRows(rows, g.Features, out); return nil })
	l.out["sparse.spmm_f64_ms"] = secs * 1000
	l.out["sparse.spmm_macs"] = float64(macs)
	// Computed, not measured: per stored entry an index and a value, plus the
	// f-wide source row it gathers; per output row one f-wide store.
	nnz := adj.NNZ()
	l.out["sparse.spmm_bytes"] = float64(nnz*(8+8) + nnz*f*8 + n*f*8)

	av, x32, out32 := make([]float32, nnz), make([]float32, n*f), make([]float32, n*f)
	kernel.ToF32(av, adj.Val)
	kernel.ToF32(x32, g.Features.Data)
	secs, _ = timed(l.sz.reps, func() error { adj.MulDenseRows32(rows, av, x32, f, out32); return nil })
	l.out["sparse.spmm_f32_ms"] = secs * 1000
	aq, aScale := kernel.Quantize(adj.Val)
	xq, xScale := kernel.Quantize(g.Features.Data)
	secs, _ = timed(l.sz.reps, func() error { adj.MulDenseRows8(rows, aq, xq, f, aScale*xScale, out32); return nil })
	l.out["sparse.spmm_int8_ms"] = secs * 1000

	// par.ForWeighted over the fixture's row-nnz at nproc workers: the
	// heaviest chunk against an even share.
	var mu sync.Mutex
	heaviest := 0
	par.ForWeighted(n, nnz*f, nnz, adj.RowNNZ, func(lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		heaviest = max(heaviest, adj.RowPtr[hi]-adj.RowPtr[lo])
	})
	workers := min(runtime.GOMAXPROCS(0), n)
	l.out["par.split_imbalance"] = float64(heaviest) / (float64(nnz) / float64(workers))

	c := cache.New(4096)
	const ops = 1 << 18
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		c.Put(i&4095, cache.Entry{Pred: 1, Depth: 2})
	}
	l.out["cache.put_ns"] = float64(time.Since(t0).Nanoseconds()) / ops
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		c.Get(i & 4095)
	}
	l.out["cache.get_ns"] = float64(time.Since(t0).Nanoseconds()) / ops

	null, err := listen(http.HandlerFunc(nullHandler))
	if err != nil {
		return err
	}
	defer null.close()
	st := &stack{client: newClient(2), front: null}
	defer st.client.CloseIdleConnections()
	return l.tr.rung("point", "loadgen.null_http", "", l.point.n, func(i int) error {
		_, err := st.infer(l.point.reqs.body(i))
		return err
	})
}

// derive turns the rungs' spans into the named per-layer metrics.
func (l *ladder) derive() {
	ms := l.tr.median
	us := func(shape, name string) float64 { return ms(shape, name) * 1000 }
	o := l.out

	o["loadgen.null_http_us"] = us("point", "loadgen.null_http")
	o["serve.http_point_us"] = us("point", "serve.http")
	o["serve.classify_point_us"] = us("point", "serve.classify")
	o["core.infer_point_us"] = us("point", "core.infer")
	o["serve.http_self_us"] = l.tr.self("point", "serve.http", "serve.classify") * 1000
	o["serve.classify_self_us"] = l.tr.self("point", "serve.classify", "core.infer") * 1000
	o["serve.http_hit_us"] = us("point", "serve.http_hit")
	o["serve.http_deep_ms"] = ms("deep", "serve.http")
	o["graph.bfs_point_us"] = us("point", "graph.bfs")
	o["sparse.extract_point_us"] = us("point", "sparse.extract")
	o["sparse.spmm_point_us"] = us("point", "sparse.spmm")
	o["graph.bfs_deep_ms"] = ms("deep", "graph.bfs")
	o["sparse.extract_deep_ms"] = ms("deep", "sparse.extract")
	o["sparse.spmm_deep_ms"] = ms("deep", "sparse.spmm")
	o["core.infer_fan8_ms"] = ms("fan8", "core.infer")
	o["core.infer_deep_ms"] = ms("deep", "core.infer")
	o["core.infer_deep_f32_ms"] = ms("deep", "core.infer_f32")
	o["core.infer_deep_int8_ms"] = ms("deep", "core.infer_int8")
	for _, sh := range []string{"point", "deep"} {
		o["core.replay_cover_share_"+sh] = (ms(sh, "graph.bfs") + ms(sh, "sparse.extract") + ms(sh, "sparse.spmm")) / ms(sh, "core.infer")
	}

	o["shard.http_fan8_ms"] = ms("fan8", "serve.http")
	o["shard.router_http_ms"] = ms("fan8", "shard.router_http")
	o["shard.router_local_ms"] = ms("fan8", "shard.router_local")
	o["shard.rpc_self_ms"] = l.tr.self("fan8", "shard.router_http", "shard.router_local")
	o["shard.route_self_ms"] = l.tr.self("fan8", "shard.router_local", "core.infer")
}
