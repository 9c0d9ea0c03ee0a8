package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
)

// runResult is one workload run: the end-to-end metrics, the per-layer
// metrics only a measured phase can give (the rest come from the ladder),
// and the counts behind the result line.
type runResult struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	correct   bool
	problem   string // first failure or mismatch, empty when correct
	samples   int    // latency samples behind the percentiles
	deltas    int    // deltas the writer posted during the phase
}

// heapMB is the live heap after two collections (the second frees what the
// first one's finalizers released).
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runWorkload builds w's stack sz.builds times, warms the last build,
// measures one closed-loop phase on it and verifies its answers.
func runWorkload(fx *fixture, index int, sz sizes) (*runResult, error) {
	w := workloads[index]
	reqs := fx.requests(w, index)
	ds := fx.deltas

	// The probe's 32 MB are allocated before the first build, so that they
	// are in both readings mem_setup_mb is the difference of.
	pb, err := newProbe(reqs.body(0))
	if err != nil {
		return nil, err
	}
	defer pb.close()

	var (
		st     *stack
		setups []float64
		base   float64
	)
	for b := 0; b < sz.builds; b++ {
		if st != nil {
			st.close()
			st = nil
		}
		g := fx.graph.Clone()
		base = heapMB()
		t0 := time.Now()
		var err error
		if st, err = buildStack(fx, w, g, reqs.body(0)); err != nil {
			return nil, fmt.Errorf("building %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()

	var wr *writer // nil where no deltas arrive beside the reads
	if w.writer {
		wr = &writer{st: st, ds: ds}
	}
	rd := &readers{st: st, reqs: reqs, conns: w.conns(), limit: w.slo, wr: wr}
	warm := rd.phase(sz.warm, sizes{slice: sz.warm - sz.probe, probe: sz.probe}, pb)
	if warm.failed+warm.deltaBad > 0 {
		return nil, fmt.Errorf("%s warm-up: %d reads and %d deltas failed: %w", w.name, warm.failed, warm.deltaBad, warm.firstErr)
	}
	before, err := snapshot(st)
	if err != nil {
		return nil, err
	}
	ph := rd.phase(sz.phase, sz, pb)
	after, err := snapshot(st)
	if err != nil {
		return nil, err
	}
	// Read after the phase, not before it: the two collections empty the
	// engine's pooled scratch, which the first measured requests would then
	// pay to rebuild.
	mem := heapMB() - base
	if len(ph.lat) == 0 || (w.writer && len(ph.deltaLat) == 0) {
		return nil, fmt.Errorf("%s: %d reads and %d deltas answered, need at least one of each: %v", w.name, len(ph.lat), len(ph.deltaLat), ph.firstErr)
	}

	// The replies come from the live stack; the reference is only built once
	// the stack is gone, so the two never hold their memory at once.
	check := replay(fx, w, st, reqs, sz.verify, fx.rng(2<<20+int64(index)))
	st.close()
	st, rd.st = nil, nil
	var applied []graph.Delta
	if wr != nil {
		wr.st = nil
		applied = ds.deltas[:wr.next]
	}
	vr, err := check(applied)
	if err != nil {
		return nil, err
	}

	// The time metrics are calibrated: scaled from the box as the probe
	// found it during this phase to the box at its nominal speed. The raw
	// readings go with the per-layer metrics.
	lat := ph.latencies()
	perSecond := float64(len(lat)) / ph.wall.Seconds()
	res := &runResult{
		attempted: ph.sent + len(ph.deltaLat) + ph.deltaBad + vr.checked,
		failed:    ph.failed + ph.deltaBad + vr.failed,
		samples:   len(lat),
		deltas:    len(ph.deltaLat),
		e2e: map[string]float64{
			"setup_s":      median(setups),
			"mem_setup_mb": mem,
			"req_per_s":    perSecond * ph.slowdown,
			"lat_p50_ms":   percentile(lat, 0.50) / ph.slowdown,
			"slo_ok_share": float64(ph.sloOK) / float64(ph.sent),
		},
	}
	res.layer = after.since(before, len(lat), ph.wall)
	res.layer["loadgen.box_slowdown"] = ph.slowdown
	res.layer["loadgen.raw_req_per_s"] = perSecond
	res.layer["loadgen.raw_lat_p50_ms"] = percentile(lat, 0.50)
	res.layer["loadgen.raw_lat_p80_ms"] = percentile(lat, 0.80)
	res.layer["loadgen.slice_spread_share"] = ph.sliceSpread()
	// The write path beside the readers; 0 on a workload without a writer,
	// where serve.delta_ms (an idle server) is the only delta number.
	res.layer["serve.delta_busy_p50_ms"] = median(millis(ph.deltaLat))
	res.layer["verify.exact_share"] = float64(vr.exact) / float64(vr.checked)
	res.layer["verify.fail_share"] = float64(res.failed) / float64(res.attempted)
	switch {
	case ph.firstErr != nil:
		res.problem = ph.firstErr.Error()
	case vr.problem != "":
		res.problem = vr.problem
	}
	res.correct = res.failed == 0 && vr.exact == vr.checked
	return res, nil
}

// verdict is the verifier's outcome.
type verdict struct {
	checked, exact, failed int
	problem                string // first failed request or differing node
}

// replay sends a seeded sample of the read stream to the live stack —
// through its cache, coalescer and shards, at the workload's concurrency,
// after every delta has been applied — and returns the check that compares
// each reply's preds and depths with one uncached Infer on a deployment
// rebuilt from scratch: a clone of the pristine graph with the same deltas
// applied by graph.ApplyDelta. A stale cache entry, a drifted incremental
// repair or a wrong halo shows as a differing node.
func replay(fx *fixture, w workload, st *stack, reqs *stream, n int, rng *rand.Rand) func(applied []graph.Delta) (verdict, error) {
	if w.verifyCap > 0 {
		n = min(n, w.verifyCap)
	}
	picks := make([]int, n)
	for i := range picks {
		picks[i] = rng.Intn(reqs.count())
	}
	replies := make([]serve.InferResponse, n)
	errs := make([]error, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.conns(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(cursor.Add(1) - 1)
				if k >= n {
					return
				}
				replies[k], errs[k] = st.infer(reqs.body(picks[k]))
			}
		}()
	}
	wg.Wait()

	return func(applied []graph.Delta) (verdict, error) {
		g := fx.graph.Clone()
		for k, d := range applied {
			if _, err := g.ApplyDelta(d); err != nil {
				return verdict{}, fmt.Errorf("reference delta %d: %w", k, err)
			}
		}
		ref, err := core.NewDeployment(fx.model, g)
		if err != nil {
			return verdict{}, fmt.Errorf("reference deployment: %w", err)
		}
		opt := fx.options(w)
		v := verdict{checked: n}
		note := func(format string, args ...any) {
			if v.problem == "" {
				v.problem = fmt.Sprintf(format, args...)
			}
		}
		for k, got := range replies {
			if errs[k] != nil {
				v.failed++
				note("verification request %d: %v", picks[k], errs[k])
				continue
			}
			nodes := reqs.nodes(picks[k])
			want, err := ref.Infer(nodes, opt)
			if err != nil {
				return verdict{}, fmt.Errorf("reference infer: %w", err)
			}
			if diff := diffReply(nodes, got, want); diff != "" {
				note("request %d %s", picks[k], diff)
			} else {
				v.exact++
			}
		}
		return v, nil
	}
}

// diffReply names the first node whose served pred or depth differs from
// the reference, or returns "" when the reply is exact.
func diffReply(nodes []int, got serve.InferResponse, want *core.Result) string {
	if len(got.Preds) != len(nodes) || len(got.Depths) != len(nodes) {
		return fmt.Sprintf("has %d preds and %d depths for %d nodes", len(got.Preds), len(got.Depths), len(nodes))
	}
	for i, v := range nodes {
		if got.Preds[i] != want.Pred[i] || got.Depths[i] != want.Depths[i] {
			return fmt.Sprintf("node %d: served pred %d depth %d, reference pred %d depth %d",
				v, got.Preds[i], got.Depths[i], want.Pred[i], want.Depths[i])
		}
	}
	return ""
}

// counters is a point-in-time reading of everything the per-layer phase
// metrics are differences of: the server's own /metrics and /stats, and the
// process.
type counters struct {
	prom     map[string]float64
	stats    serve.Stats
	cpu      time.Duration
	gcPause  time.Duration
	allocB   uint64
	resident uint64 // bytes the Go runtime holds from the OS
}

func snapshot(st *stack) (counters, error) {
	c := counters{prom: map[string]float64{}, stats: st.srv.Stats()}
	resp, err := st.client.Get(st.front.url + "/metrics")
	if err != nil {
		return c, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			c.prom[line[:cut]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("reading /metrics: %w", err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPause = time.Duration(ms.PauseTotalNs)
	c.allocB = ms.TotalAlloc
	c.resident = ms.Sys - ms.HeapReleased
	return c, nil
}

// obsStages are the engine stages whose share of request time is reported;
// whatever they leave of nai_request_duration_seconds is unattributed.
var obsStages = []string{"queue", "bfs", "extract", "propagate", "decide", "classify"}

// since turns two readings around a measured phase into per-layer metrics.
func (c counters) since(b counters, answered int, wall time.Duration) map[string]float64 {
	out := map[string]float64{}
	delta := func(series string) float64 { return c.prom[series] - b.prom[series] }
	total := delta("nai_request_duration_seconds_sum")
	attributed := 0.0
	for _, stage := range obsStages {
		share := 0.0
		if total > 0 {
			share = delta(`nai_stage_duration_seconds_sum{stage="`+stage+`"}`) / total
		}
		out["obs.stage_"+stage+"_share"] = share
		attributed += share
	}
	out["obs.unattributed_share"] = 1 - attributed

	out["serve.rejected"] = float64(c.stats.Rejected - b.stats.Rejected)
	out["serve.coalesce_rate"] = 0
	if calls := c.stats.InferCalls - b.stats.InferCalls; calls > 0 {
		out["serve.coalesce_rate"] = float64(c.stats.Requests-b.stats.Requests) / float64(calls)
	}
	out["cache.hit_share"], out["cache.invalidations"], out["cache.evictions"] = 0, 0, 0
	if cc, bc := c.stats.Cache, b.stats.Cache; cc != nil && bc != nil {
		hits, misses := cc.Hits-bc.Hits, cc.Misses-bc.Misses
		if hits+misses > 0 {
			out["cache.hit_share"] = float64(hits) / float64(hits+misses)
		}
		out["cache.invalidations"] = float64(cc.Invalidations - bc.Invalidations)
		out["cache.evictions"] = float64(cc.Evictions - bc.Evictions)
	}

	out["process.cpu_ms_per_req"] = float64(c.cpu-b.cpu) / float64(time.Millisecond) / float64(answered)
	out["process.gc_pause_ms"] = float64(c.gcPause-b.gcPause) / float64(time.Millisecond)
	out["process.alloc_mb_per_s"] = float64(c.allocB-b.allocB) / (1 << 20) / wall.Seconds()
	out["process.resident_mb"] = float64(c.resident) / (1 << 20)
	return out
}
