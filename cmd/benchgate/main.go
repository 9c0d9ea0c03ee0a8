// Command benchgate compares a freshly generated BENCH_infer.json against
// the checked-in baseline and fails (exit 1) when the serving engine's
// allocation footprint regresses. CI runs it after the benchmark job so the
// perf/memory claims in the repository stay measured, not asserted.
//
// Only machine-independent numbers gate: B/op of the serial serving
// benchmark (-gate, tolerance -tol, default 20%), the compacted-scratch
// reduction factor (-min-reduction, default 5×), the coalesced-serving
// throughput ratio (-min-serve-speedup, default 1.5×), the sharded-
// serving throughput ratio (-min-shard-speedup, default 1.5×, requires a
// multi-core runner — the shard fan-out has nothing to run on with one
// CPU, so pass 0 to skip the gate on serial hosts), the http-vs-local
// shard transport throughput ratio (-min-transport-ratio, default 0.15×,
// 0 skips — a floor, not a speedup: the wire costs something, the gate
// catches a codec/transport regression making it cost much more), the
// hot-node result-cache throughput ratio on the Zipf workload (-min-cache-speedup,
// default 2×, 0 skips) and the overload goodput ratio at 4× saturation
// (-min-overload-goodput, default 0.7, 0 skips), the int8-vs-f64 kernel
// throughput ratio on the DRAM-resident SpMM workload (-min-quant-speedup,
// default 2×, 0 skips), the int8 tier's top-1 agreement with the f64
// reference (-min-top1-agreement, default 0.99, 0 skips) and the
// replica-kill availability (-min-failover-availability, default 0.99, 0 skips — the
// non-5xx fraction while one replica of a 2-replica shard is killed under
// steady traffic; replication promises the death is client-invisible) —
// the ratios are
// same-process, same-hardware numbers, so they port across runners even
// though the absolute req/s numbers do not. Wall-clock ns/op differs across runner hardware, and the
// Workers>1 variant's B/op moves with GC-driven sync.Pool flushes under
// concurrency, so both are reported for information only.
//
// Usage:
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_infer.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/benchfmt"
)

func main() {
	basePath := flag.String("baseline", "", "checked-in BENCH_infer.json to compare against")
	curPath := flag.String("current", "BENCH_infer.json", "freshly generated BENCH_infer.json")
	tol := flag.Float64("tol", 0.20, "allowed fractional B/op regression per gated benchmark")
	minReduction := flag.Float64("min-reduction", 5, "required scratch-vs-dense memory reduction factor")
	minServeSpeedup := flag.Float64("min-serve-speedup", 1.5, "required coalesced-vs-naive serving throughput ratio")
	minShardSpeedup := flag.Float64("min-shard-speedup", 1.5, "required sharded-vs-single serving throughput ratio (0 skips, for single-core hosts)")
	minTransportRatio := flag.Float64("min-transport-ratio", 0.15, "required http-vs-local shard transport throughput ratio (0 skips)")
	minCacheSpeedup := flag.Float64("min-cache-speedup", 2.0, "required cached-vs-uncached Zipf serving throughput ratio (0 skips)")
	minOverloadGoodput := flag.Float64("min-overload-goodput", 0.7, "required 4x-vs-1x saturation goodput ratio (0 skips)")
	minQuantSpeedup := flag.Float64("min-quant-speedup", 2.0, "required int8-vs-f64 kernel throughput ratio (0 skips)")
	minTop1Agreement := flag.Float64("min-top1-agreement", 0.99, "required int8-vs-f64 top-1 classification agreement (0 skips)")
	minFailoverAvail := flag.Float64("min-failover-availability", 0.99, "required non-5xx fraction during the replica-kill experiment (0 skips)")
	gateList := flag.String("gate", "infer/distance-multibatch",
		"comma-separated benchmark names whose B/op is gated")
	flag.Parse()
	if *basePath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required")
		os.Exit(2)
	}
	base, err := benchfmt.Load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cur, err := benchfmt.Load(*curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	gated := map[string]bool{}
	for _, name := range strings.Split(*gateList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			gated[name] = true
		}
	}

	failed := false
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %14s %14s %8s\n", "benchmark", "base B/op", "cur B/op", "delta")
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Printf("%-40s MISSING from current run\n", name)
			failed = true
			continue
		}
		delta := "n/a"
		if b.BytesPerOp > 0 {
			frac := float64(c.BytesPerOp-b.BytesPerOp) / float64(b.BytesPerOp)
			delta = fmt.Sprintf("%+.1f%%", 100*frac)
			if gated[name] && frac > *tol {
				delta += "  FAIL"
				failed = true
			}
		}
		fmt.Printf("%-40s %14d %14d %8s\n", name, b.BytesPerOp, c.BytesPerOp, delta)
	}

	fmt.Printf("\nscratch %-32s %10d B/batch (dense equiv %d B, %.1fx reduction)\n",
		cur.Scratch.Workload, cur.Scratch.ScratchBytes, cur.Scratch.FullGraphEquiv, cur.Scratch.ReductionX)
	if cur.Scratch.ScratchBytes == 0 {
		fmt.Println("benchgate: FAIL — current run recorded no scratch measurement")
		failed = true
	} else if cur.Scratch.ReductionX < *minReduction {
		fmt.Printf("benchgate: FAIL — scratch reduction %.1fx below required %.1fx\n",
			cur.Scratch.ReductionX, *minReduction)
		failed = true
	}

	sv := cur.Serving
	fmt.Printf("\nserving %-32s %10.0f naive req/s, %10.0f coalesced req/s (%.2fx, %.1f targets/batch)\n",
		sv.Workload, sv.NaiveReqPerSec, sv.CoalReqPerSec, sv.ThroughputX, sv.AvgBatchTargets)
	if sv.NaiveReqPerSec == 0 || sv.CoalReqPerSec == 0 {
		fmt.Println("benchgate: FAIL — current run recorded no serving measurement")
		failed = true
	} else if sv.ThroughputX < *minServeSpeedup {
		fmt.Printf("benchgate: FAIL — coalesced serving speedup %.2fx below required %.2fx\n",
			sv.ThroughputX, *minServeSpeedup)
		failed = true
	}

	sh := cur.Sharding
	fmt.Printf("\nsharding %-31s %10.0f p1 req/s, %10.0f sharded req/s (P=%d, %.2fx, halo %.0f%%)\n",
		sh.Workload, sh.P1ReqPerSec, sh.ShardedReqPerSec, sh.P, sh.SpeedupX, 100*sh.HaloFraction)
	if *minShardSpeedup > 0 {
		if sh.P1ReqPerSec == 0 || sh.ShardedReqPerSec == 0 {
			fmt.Println("benchgate: FAIL — current run recorded no sharding measurement")
			failed = true
		} else if sh.SpeedupX < *minShardSpeedup {
			fmt.Printf("benchgate: FAIL — sharded serving speedup %.2fx below required %.2fx\n",
				sh.SpeedupX, *minShardSpeedup)
			failed = true
		}
	}

	tp := cur.Transport
	fmt.Printf("\ntransport %-30s %10.0f local req/s, %10.0f http req/s (P=%d, %.2fx of local)\n",
		tp.Workload, tp.LocalReqPerSec, tp.HTTPReqPerSec, tp.P, tp.HTTPOverLocal)
	if *minTransportRatio > 0 {
		if tp.LocalReqPerSec == 0 || tp.HTTPReqPerSec == 0 {
			fmt.Println("benchgate: FAIL — current run recorded no transport measurement")
			failed = true
		} else if tp.HTTPOverLocal < *minTransportRatio {
			fmt.Printf("benchgate: FAIL — http transport throughput %.2fx of local, below required %.2fx\n",
				tp.HTTPOverLocal, *minTransportRatio)
			failed = true
		}
	}

	ca := cur.Cache
	fmt.Printf("\ncache %-34s %10.0f uncached req/s, %10.0f cached req/s (%.2fx, %.0f%% hit rate)\n",
		ca.Workload, ca.UncachedReqPerSec, ca.CachedReqPerSec, ca.SpeedupX, 100*ca.HitRate)
	if *minCacheSpeedup > 0 {
		if ca.UncachedReqPerSec == 0 || ca.CachedReqPerSec == 0 {
			fmt.Println("benchgate: FAIL — current run recorded no cached-serving measurement")
			failed = true
		} else if ca.SpeedupX < *minCacheSpeedup {
			fmt.Printf("benchgate: FAIL — cached serving speedup %.2fx below required %.2fx\n",
				ca.SpeedupX, *minCacheSpeedup)
			failed = true
		}
	}

	ov := cur.Overload
	fmt.Printf("\noverload %-31s %10.0f goodput@1x req/s, %10.0f goodput@4x req/s (ratio %.2f, p99@4x %dus, rejected %d)\n",
		ov.Workload, ov.Goodput1x, ov.Goodput4x, ov.GoodputRatio, ov.P99At4xUs, ov.Rejected4x)
	if *minOverloadGoodput > 0 {
		if ov.Goodput1x == 0 || ov.Goodput4x == 0 {
			fmt.Println("benchgate: FAIL — current run recorded no overload measurement")
			failed = true
		} else if ov.GoodputRatio < *minOverloadGoodput {
			fmt.Printf("benchgate: FAIL — 4x saturation goodput ratio %.2f below required %.2f\n",
				ov.GoodputRatio, *minOverloadGoodput)
			failed = true
		}
	}

	pr := cur.Precision
	fmt.Printf("\nprecision %-30s %8.3f f64 GFLOPS, f32 %.2fx, int8 %.2fx (top-1 agreement %.3f, max |dlogit| %.3f)\n",
		pr.Workload, pr.F64GFLOPS, pr.F32SpeedupX, pr.Int8SpeedupX, pr.Int8Top1Agreement, pr.MaxAbsLogitDelta)
	if *minQuantSpeedup > 0 {
		if pr.F64GFLOPS == 0 || pr.Int8GFLOPS == 0 {
			fmt.Println("benchgate: FAIL — current run recorded no precision measurement")
			failed = true
		} else if pr.Int8SpeedupX < *minQuantSpeedup {
			fmt.Printf("benchgate: FAIL — int8 kernel speedup %.2fx below required %.2fx\n",
				pr.Int8SpeedupX, *minQuantSpeedup)
			failed = true
		}
	}
	if *minTop1Agreement > 0 {
		if pr.Int8Top1Agreement == 0 {
			fmt.Println("benchgate: FAIL — current run recorded no int8 agreement measurement")
			failed = true
		} else if pr.Int8Top1Agreement < *minTop1Agreement {
			fmt.Printf("benchgate: FAIL — int8 top-1 agreement %.3f below required %.3f\n",
				pr.Int8Top1Agreement, *minTop1Agreement)
			failed = true
		}
	}

	fo := cur.Failover
	fmt.Printf("\nfailover %-31s %10d requests, %d 5xx (availability %.4f, post-kill p99 %dus, %d shards x %d replicas, %d clients)\n",
		fo.Workload, fo.Requests, fo.Errors5xx, fo.Availability, fo.P99Us, fo.Shards, fo.Replicas, fo.Clients)
	if *minFailoverAvail > 0 {
		if fo.Requests == 0 {
			fmt.Println("benchgate: FAIL — current run recorded no failover measurement")
			failed = true
		} else if fo.Availability < *minFailoverAvail {
			fmt.Printf("benchgate: FAIL — failover availability %.4f below required %.4f\n",
				fo.Availability, *minFailoverAvail)
			failed = true
		}
	}

	if failed {
		fmt.Println("\nbenchgate: FAIL")
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: OK")
}
