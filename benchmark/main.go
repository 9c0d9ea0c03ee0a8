// Command benchmark is this repository's performance benchmark: it builds the
// real serving stack (core.Deployment or shard.Router behind serve, behind a
// loopback HTTP listener) in one process, drives it with a seeded,
// pre-generated closed-loop request stream, verifies the answers against a
// reference deployment, and prints every metric of BENCHMARK.json by name
// with its unit. README.md in this directory has the metric glossary, the
// layer → end-to-end map and the reason each workload exists.
//
// One run measures one workload:
//
//	bash benchmark/run.sh --workload point_shallow --seed 1 --seconds 18 --trace 0
//
// prints the end-to-end metrics; --trace 1 prints the per-layer metrics
// instead and writes parent-linked spans to benchmark/out/trace_<workload>.json.
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The run exits non-zero when an operation
// failed or a served answer differs from the reference.
//
// Two more modes exist for the people maintaining the benchmark: -smoke runs
// a seconds-long configuration (the tests use it), and -aa N runs N pairs of
// interleaved full runs per workload and checks that the two sets agree
// within every bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// header is the provenance every output carries.
type header struct {
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	N          int     `json:"n"`
	Conns      int     `json:"connections"`
	PhaseS     float64 `json:"phase_s"`
	// BoxSlowdown and SliceSpread are loadgen.box_slowdown and
	// loadgen.slice_spread_share of the measured phase: a disturbed run is
	// visible from the output alone.
	BoxSlowdown float64 `json:"loadgen.box_slowdown"`
	SliceSpread float64 `json:"loadgen.slice_spread_share"`
}

// commit is the VCS revision the binary was built from, when the build ran
// inside a repository.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// memoryBudget is the soft limit the full-size run gives the Go runtime
// (what GOMEMLIMIT sets), so that the process stays within the 1 GB this
// benchmark promises. Without it the collector lets batch_deep's heap swing
// between 0.6 and 1.5 GB, by a different amount each run.
const memoryBudget = 960 << 20

// steady keeps one property of the box out of the numbers. On the virtual
// machines this runs on, the host takes back pages the guest freed, and a
// page it has to hand out again costs about 30 µs to fault in against 2 µs
// for one the guest still holds. Every build allocates a few hundred MB, so
// that cost lands in setup_s: across ten runs its quartile spread was
// 0.34–0.94 untreated against 0.05–0.23 when the process had touched its
// whole memory budget once before anything was timed. The touch costs a run
// 0.4–3.5 s of untimed start-up; it moved no read metric either way.
func steady() {
	debug.SetMemoryLimit(memoryBudget)
	ballast := make([]byte, memoryBudget)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	runtime.KeepAlive(ballast)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: point_shallow, batch_deep, zipf_delta or sharded_http")
	seed := flag.Int64("seed", 1, "seed of the serving graph, the request streams and the deltas")
	seconds := flag.Int("seconds", 18, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics and writes the span file instead of the end-to-end metrics")
	smoke := flag.Bool("smoke", false, "seconds-long configuration (n = 2000, 0.3 s phases) that checks the plumbing, not the numbers")
	outDir := flag.String("out", "benchmark/out", "directory the traced run writes trace_<workload>.json to")
	aa := flag.Int("aa", 0, "A/A calibration: run this many interleaved pairs of full runs per workload and compare the two sets")
	flag.Parse()

	if *aa > 0 {
		os.Exit(calibrate(*aa, *seed, *seconds))
	}
	index := -1
	for i, w := range workloads {
		if w.name == *name {
			index = i
		}
	}
	if index < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (one of the four), -seconds ≥ 1 and -trace 0|1\n")
		flag.Usage()
		os.Exit(2)
	}
	sz := fullSizes(time.Duration(*seconds) * time.Second)
	if *smoke {
		sz = smokeSizes()
	} else {
		steady()
	}
	line, err := run(index, *seed, sz, *trace == 1, *outDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(line) // plain numbers and strings
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

// run measures one workload and writes the human-readable table to w; the
// caller prints the returned result line.
func run(index int, seed int64, sz sizes, traced bool, outDir string, w io.Writer) (*resultLine, error) {
	wl := workloads[index]
	fx, err := newFixture(seed, sz.n)
	if err != nil {
		return nil, err
	}
	if traced {
		sz.builds = 1 // setup_s is an end-to-end metric; the ladder times each build step itself
	}
	res, err := runWorkload(fx, index, sz)
	if err != nil {
		return nil, err
	}
	hdr := header{
		Commit: commit(), Workload: wl.name, Seed: seed,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		N: sz.n, Conns: wl.conns(), PhaseS: sz.phase.Seconds(),
		BoxSlowdown: res.layer["loadgen.box_slowdown"], SliceSpread: res.layer["loadgen.slice_spread_share"],
	}
	defs, values, aside := endToEnd, res.e2e, res.layer
	if traced {
		lad, err := climb(fx, sz, hdr, outDir)
		if err != nil {
			return nil, err
		}
		defs, values, aside = perLayer, res.layer, res.e2e
		for k, v := range lad {
			values[k] = v
		}
		if null, p50 := values["loadgen.null_http_us"]/1000, res.e2e["lat_p50_ms"]; wl.name == "point_shallow" && null > p50/4 {
			fmt.Fprintf(os.Stderr, "benchmark: warning: the load generator's own cost (%.3f ms per request) exceeds a quarter of point_shallow lat_p50_ms (%.3f ms)\n", null, p50)
		}
	}
	metrics, err := report(defs, values)
	if err != nil {
		return nil, err
	}
	printTable(w, hdr, res, defs, metrics, aside)
	return &resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: metrics}, nil
}

// printTable prints the provenance header and every metric by name with its
// unit, in table order. The other kind's values ride along in parentheses for
// the reader; only the table above them is the run's result.
func printTable(w io.Writer, hdr header, res *runResult, defs []metricDef, metrics map[string]measurement, aside map[string]float64) {
	fmt.Fprintf(w, "benchmark %s  commit=%s seed=%d nproc=%d gomaxprocs=%d %s n=%d connections=%d phase=%gs\n",
		hdr.Workload, hdr.Commit, hdr.Seed, hdr.NProc, hdr.GoMaxProcs, hdr.GoVersion, hdr.N, hdr.Conns, hdr.PhaseS)
	fmt.Fprintf(w, "  latency samples=%d deltas=%d loadgen.box_slowdown=%.4f loadgen.slice_spread_share=%.4f\n", res.samples, res.deltas, hdr.BoxSlowdown, hdr.SliceSpread)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	if !res.correct {
		fmt.Fprintf(w, "  INCORRECT: %d of %d operations failed; %s\n", res.failed, res.attempted, res.problem)
	}
	names := make([]string, 0, len(aside))
	for k := range aside {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  (%s = %.6g)\n", k, aside[k])
	}
}
