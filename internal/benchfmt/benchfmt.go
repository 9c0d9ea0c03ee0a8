// Package benchfmt defines the BENCH_infer.json schema shared by the root
// serving benchmark (which writes the file) and cmd/benchgate (which gates
// CI regressions against it). Keeping the struct tags in one place means a
// renamed field breaks the build instead of silently unmarshalling zeros
// and letting the gate pass vacuously.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
)

// OpStats is one measured benchmark variant: wall-clock plus the allocation
// footprint (B/op is the machine-independent number the CI perf gate
// compares across runs).
type OpStats struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// ScratchStats records the compacted-scratch memory model as tracked
// numbers: on the small-batch/large-graph serving workload, the scratch one
// in-flight batch retains must follow the supporting set, not the graph.
// FullGraphEquiv is what the dense pre-compaction scratch held for the same
// options (TMax full-graph n×f float64 buffers); ReductionX is the measured
// win, gated in CI.
type ScratchStats struct {
	Workload           string  `json:"workload"`
	N                  int     `json:"n"`
	F                  int     `json:"f"`
	TMax               int     `json:"tmax"`
	BatchSize          int     `json:"batch_size"`
	NumTargets         int     `json:"num_targets"`
	ScratchBytes       int     `json:"scratch_bytes_per_batch"`
	FullGraphEquivExpr string  `json:"full_graph_equiv_expr"`
	FullGraphEquiv     int     `json:"full_graph_equiv_bytes"`
	ReductionX         float64 `json:"reduction_x"`
}

// ServingStats records the coalesced-serving benchmark: many concurrent
// single-node clients served either naively (one Infer per request) or
// through the internal/serve coalescer, which amortizes the per-batch
// BFS/extraction/GEMM work across callers. ThroughputX = coalesced/naive
// requests-per-second is the headline number cmd/benchgate gates in CI; the
// ratio is machine-portable because both sides run on the same hardware in
// the same process.
type ServingStats struct {
	Workload        string  `json:"workload"`
	Clients         int     `json:"clients"`
	MaxBatch        int     `json:"max_batch"`
	MaxWaitUs       int64   `json:"max_wait_us"`
	NaiveReqPerSec  float64 `json:"naive_req_per_sec"`
	CoalReqPerSec   float64 `json:"coalesced_req_per_sec"`
	ThroughputX     float64 `json:"throughput_x"`
	CoalesceRate    float64 `json:"coalesce_rate"`
	AvgBatchTargets float64 `json:"avg_batch_targets"`
}

// ShardingStats records the sharded-serving benchmark: a sequential stream
// of small batch requests against a P-shard router versus a single-shard
// one on the same graph and operating point. The per-request pipeline —
// supporting-ball BFS, remap, decisions — is serial per
// batch, so fanning a request across P shards parallelizes exactly the
// costs the in-batch kernels cannot; SpeedupX = sharded/P1 requests-per-
// second is gated in CI (same-process, same-hardware ratio, so it ports
// across runners). HaloFraction is the ghost-row replication the partition
// pays: Σ halo / n.
type ShardingStats struct {
	Workload         string  `json:"workload"`
	P                int     `json:"p"`
	Radius           int     `json:"halo_radius"`
	HaloFraction     float64 `json:"halo_fraction"`
	BatchTargets     int     `json:"batch_targets"`
	P1ReqPerSec      float64 `json:"p1_req_per_sec"`
	ShardedReqPerSec float64 `json:"sharded_req_per_sec"`
	SpeedupX         float64 `json:"speedup_x"`
}

// TransportStats records the shard-transport comparison: the same P-shard
// router streaming the same small-batch workload over the in-process
// LocalTransport versus the HTTP/binary transport to loopback worker
// processes. Answers are bit-identical over both (the cross-transport
// equivalence tests pin that); the ratio HTTPOverLocal = http/local
// requests-per-second prices the wire — codec, HTTP framing, connection
// reuse — and cmd/benchgate holds a floor under it so a codec or transport
// regression cannot land silently. Same-process, same-hardware ratio, so it
// ports across runners; loopback sockets mean it measures protocol
// overhead, not the network.
type TransportStats struct {
	Workload       string  `json:"workload"`
	P              int     `json:"p"`
	BatchTargets   int     `json:"batch_targets"`
	LocalReqPerSec float64 `json:"local_req_per_sec"`
	HTTPReqPerSec  float64 `json:"http_req_per_sec"`
	HTTPOverLocal  float64 `json:"http_over_local"`
}

// CachedServingStats records the hot-node result-cache benchmark: many
// concurrent clients replaying a deterministic Zipf-skewed target stream
// against two otherwise identical coalescing servers, one with the result
// cache and one without. SpeedupX = cached/uncached requests-per-second is
// the headline number cmd/benchgate gates in CI (≥2× on the multi-core
// runner); like the other serving ratios it is a same-process,
// same-hardware number, so it ports across runners. HitRate is the cached
// server's measured per-target cache hit rate over the run.
type CachedServingStats struct {
	Workload          string  `json:"workload"`
	Clients           int     `json:"clients"`
	ZipfS             float64 `json:"zipf_s"`
	DistinctTargets   int     `json:"distinct_targets"`
	CacheEntries      int     `json:"cache_entries"`
	UncachedReqPerSec float64 `json:"uncached_req_per_sec"`
	CachedReqPerSec   float64 `json:"cached_req_per_sec"`
	SpeedupX          float64 `json:"speedup_x"`
	HitRate           float64 `json:"hit_rate"`
}

// OverloadStats records the saturation benchmark behind the overload-
// control layer: the server's closed-loop capacity is calibrated first,
// then an open-loop arrival process offers 1× and 4× that rate against a
// bounded admission budget. Goodput is successfully served requests per
// second; the p99 covers only admitted requests (rejections are
// microsecond-cheap 429s and would only flatter the tail). GoodputRatio =
// goodput(4×)/goodput(1×) is the collapse detector cmd/benchgate gates in
// CI: without admission control, 4× saturation drives goodput toward zero
// as every request queues and times out; with it, goodput must hold ≥0.7×
// of the 1× level. Same-process, same-hardware ratio — portable across
// runners.
type OverloadStats struct {
	Workload          string  `json:"workload"`
	MaxPending        int     `json:"max_pending"`
	DefaultDeadlineMs int64   `json:"default_deadline_ms"`
	CapacityReqPerSec float64 `json:"capacity_req_per_sec"`
	Offered1x         float64 `json:"offered_1x_req_per_sec"`
	Goodput1x         float64 `json:"goodput_1x_req_per_sec"`
	P99At1xUs         int64   `json:"p99_1x_us"`
	Offered4x         float64 `json:"offered_4x_req_per_sec"`
	Goodput4x         float64 `json:"goodput_4x_req_per_sec"`
	P99At4xUs         int64   `json:"p99_4x_us"`
	Rejected4x        int64   `json:"rejected_4x"`
	GoodputRatio      float64 `json:"goodput_ratio"`
}

// PrecisionStats records the relaxed-precision kernel benchmark: the same
// propagation workload run through the f64 reference SpMM and the f32/int8
// tiers, plus the accuracy cost of serving quantized. Kernel throughput is
// effective GFLOP-equivalents — 2·nnz·f fused multiply-adds per multiply,
// whatever the element width — so F32SpeedupX/Int8SpeedupX are bandwidth
// wins at identical arithmetic. Int8Top1Agreement is the fraction of test
// nodes whose final class at the int8 tier matches the f64 reference on the
// benchmark workload, and MaxAbsLogitDelta the largest per-class logit
// drift; cmd/benchgate holds floors under Int8SpeedupX and
// Int8Top1Agreement (same-process, same-hardware ratios — portable).
type PrecisionStats struct {
	Workload          string  `json:"workload"`
	Rows              int     `json:"rows"`
	F                 int     `json:"f"`
	NNZ               int     `json:"nnz"`
	F64GFLOPS         float64 `json:"f64_gflops"`
	F32GFLOPS         float64 `json:"f32_gflops"`
	Int8GFLOPS        float64 `json:"int8_gflops"`
	F32SpeedupX       float64 `json:"f32_speedup_x"`
	Int8SpeedupX      float64 `json:"int8_speedup_x"`
	F32Top1Agreement  float64 `json:"f32_top1_agreement"`
	Int8Top1Agreement float64 `json:"int8_top1_agreement"`
	MaxAbsLogitDelta  float64 `json:"max_abs_logit_delta"`
}

// FailoverStats records the availability experiment: R-way replicated
// shards under steady concurrent traffic, with one replica killed
// mid-stream. Availability is the non-5xx fraction over the whole run
// (kill included) — the replication contract says a single replica death
// is invisible to clients — and the p99 covers the post-kill window, when
// failover and down-marking costs would show up if they leaked.
type FailoverStats struct {
	Workload     string  `json:"workload"`
	Shards       int     `json:"shards"`
	Replicas     int     `json:"replicas"`
	Clients      int     `json:"clients"`
	Requests     int     `json:"requests"`
	Errors5xx    int     `json:"errors_5xx"`
	Availability float64 `json:"availability"`
	P99Us        int64   `json:"failover_p99_us"`
}

// File is the full BENCH_infer.json document.
type File struct {
	Dataset    string             `json:"dataset"`
	N          int                `json:"n"`
	F          int                `json:"f"`
	K          int                `json:"k"`
	BatchSize  int                `json:"batch_size"`
	NumTargets int                `json:"num_targets"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	MACs       core.MACBreakdown  `json:"infer_macs"`
	Benchmarks map[string]OpStats `json:"benchmarks"`
	Scratch    ScratchStats       `json:"scratch"`
	Serving    ServingStats       `json:"serving"`
	Sharding   ShardingStats      `json:"sharding"`
	Transport  TransportStats     `json:"transport"`
	Cache      CachedServingStats `json:"cache"`
	Overload   OverloadStats      `json:"overload"`
	Precision  PrecisionStats     `json:"precision"`
	Failover   FailoverStats      `json:"failover"`
}

// Load reads and parses a BENCH_infer.json file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
