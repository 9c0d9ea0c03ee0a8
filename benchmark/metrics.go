package main

import (
	"fmt"
	"sort"
)

// metricDef is one row of BENCHMARK.json: a metric's name, unit, direction
// and — for end-to-end metrics — the relative bound by which its median may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the serving stack sees, reported by every
// workload and computed over the whole measured phase. README.md, "A/A
// calibration", has the runs the bounds come from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mem_setup_mb", "MB", "lower", 0.05},
	{"req_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"slo_ok_share", "ratio", "higher", 0.05},
}

// perLayer lists the traced run's metrics, grouped by the module they time
// from outside. README.md maps each group to the end-to-end metric it
// should move.
var perLayer = []metricDef{
	// sparse / par
	{Name: "sparse.spmm_f64_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.spmm_f32_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.spmm_int8_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.spmm_macs", Unit: "count", Better: "lower"},
	{Name: "sparse.spmm_bytes", Unit: "count", Better: "lower"},
	{Name: "sparse.extract_point_us", Unit: "us", Better: "lower"},
	{Name: "sparse.extract_deep_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.spmm_point_us", Unit: "us", Better: "lower"},
	{Name: "sparse.spmm_deep_ms", Unit: "ms", Better: "lower"},
	{Name: "par.split_imbalance", Unit: "ratio", Better: "lower"},
	// graph
	{Name: "graph.bfs_point_us", Unit: "us", Better: "lower"},
	{Name: "graph.bfs_deep_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.ball_point_nodes", Unit: "count", Better: "lower"},
	{Name: "graph.ball_fan8_nodes", Unit: "count", Better: "lower"},
	{Name: "graph.ball_deep_nodes", Unit: "count", Better: "lower"},
	{Name: "graph.apply_delta_ms", Unit: "ms", Better: "lower"},
	// core
	{Name: "core.newdeployment_s", Unit: "s", Better: "lower"},
	{Name: "core.setprecision_int8_s", Unit: "s", Better: "lower"},
	{Name: "core.infer_point_us", Unit: "us", Better: "lower"},
	{Name: "core.infer_fan8_ms", Unit: "ms", Better: "lower"},
	{Name: "core.infer_deep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.infer_deep_f32_ms", Unit: "ms", Better: "lower"},
	{Name: "core.infer_deep_int8_ms", Unit: "ms", Better: "lower"},
	{Name: "core.int8_top1_agree_share", Unit: "ratio", Better: "higher"},
	{Name: "core.mean_depth_point", Unit: "count", Better: "lower"},
	{Name: "core.mean_depth_fan8", Unit: "count", Better: "lower"},
	{Name: "core.mean_depth_deep", Unit: "count", Better: "lower"},
	{Name: "core.fp_macs_per_target_point", Unit: "count", Better: "lower"},
	{Name: "core.fp_macs_per_target_fan8", Unit: "count", Better: "lower"},
	{Name: "core.fp_macs_per_target_deep", Unit: "count", Better: "lower"},
	{Name: "core.replay_cover_share_point", Unit: "ratio", Better: "higher"},
	{Name: "core.replay_cover_share_deep", Unit: "ratio", Better: "higher"},
	{Name: "core.delta_ms", Unit: "ms", Better: "lower"},
	{Name: "core.delta_int8_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scratch_mb", Unit: "MB", Better: "lower"},
	{Name: "core.alloc_kb_per_infer_point", Unit: "kB", Better: "lower"},
	// cache
	{Name: "cache.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "cache.invalidations", Unit: "count", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_ns", Unit: "ns", Better: "lower"},
	// serve
	{Name: "loadgen.null_http_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.box_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.raw_req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.raw_lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.raw_lat_p80_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.slice_spread_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.classify_point_us", Unit: "us", Better: "lower"},
	{Name: "serve.classify_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_point_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_deep_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.coalesce_rate", Unit: "ratio", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.delta_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.delta_busy_p50_ms", Unit: "ms", Better: "lower"},
	// shard
	{Name: "shard.partition_s", Unit: "s", Better: "lower"},
	{Name: "shard.worker_build_s", Unit: "s", Better: "lower"},
	{Name: "shard.router_build_s", Unit: "s", Better: "lower"},
	{Name: "shard.halo_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.shards_touched_mean", Unit: "count", Better: "lower"},
	{Name: "shard.router_local_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.router_http_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.route_self_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.rpc_self_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.http_fan8_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.delta_ms", Unit: "ms", Better: "lower"},
	// obs: the server's own stage histograms over the measured phase
	{Name: "obs.stage_queue_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.stage_bfs_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.stage_extract_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.stage_propagate_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.stage_decide_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.stage_classify_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.unattributed_share", Unit: "ratio", Better: "lower"},
	// process, measured phase (informational: too noisy to be end-to-end)
	{Name: "process.cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.alloc_mb_per_s", Unit: "MB/s", Better: "lower"},
	{Name: "process.resident_mb", Unit: "MB", Better: "lower"},
	// correctness
	{Name: "verify.exact_share", Unit: "ratio", Better: "higher"},
	{Name: "verify.fail_share", Unit: "ratio", Better: "lower"},
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns measured values into the metrics object of the result line,
// refusing a run that did not measure exactly the metrics defs names: a
// metric that silently goes missing would read as "unchanged" downstream.
func report(defs []metricDef, values map[string]float64) (map[string]measurement, error) {
	out := make(map[string]measurement, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = measurement{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics measured but not declared: %v", missing)
	}
	return out, nil
}
