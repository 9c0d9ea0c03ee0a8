package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// calibrate is the A/A mode: for every workload it runs pairs full runs of
// this same binary, each with its own seed and in its own process exactly as
// the acceptance driver runs them, deals them alternately into set A and set
// B, and prints both sets' medians and quartile spreads beside the bound. It
// returns 1 when a spread (setup_s excepted: it is a median of builds that
// differ by seed) exceeds its bound or B's median is worse than A's by more
// than the bound — the two ways a benchmark is too noisy to gate anything.
// For the calibrated metrics the last column is the spread of the raw
// reading over the same runs: what the probe bought, or cost.
func calibrate(pairs int, seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// values[workload][metric][set] lists one value per run.
	values := map[string]map[string][2][]float64{}
	for i := 0; i < 2*pairs; i++ {
		for _, w := range workloads {
			line, err := child(self, w.name, seed+int64(i), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.name, seed+int64(i), err)
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][2][]float64{}
			}
			for name, v := range line {
				sets := values[w.name][name]
				sets[i%2] = append(sets[i%2], v)
				values[w.name][name] = sets
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", i+1, 2*pairs, w.name)
		}
	}

	bad := 0
	fmt.Printf("A/A calibration: %d runs per set, %d s phases, seeds %d..%d\n", pairs, seconds, seed, seed+int64(2*pairs)-1)
	fmt.Printf("%-14s %-13s %12s %8s %12s %8s %8s %8s %6s %8s\n", "workload", "metric", "median A", "iqr A", "median B", "iqr B", "iqr A+B", "B vs A", "bound", "raw A+B")
	for _, w := range workloads {
		for _, d := range endToEnd {
			sets := values[w.name][d.Name]
			ma, mb := median(sets[0]), median(sets[1])
			sa, sb := spreadShare(sets[0]), spreadShare(sets[1])
			worse := (mb - ma) / ma // positive = B worse
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) || worse > d.Bound {
				verdict = "  TOO NOISY"
				bad++
			}
			pool := func(sets [2][]float64) float64 {
				return spreadShare(append(append([]float64(nil), sets[0]...), sets[1]...))
			}
			raw := ""
			if rs, ok := values[w.name]["loadgen.raw_"+d.Name]; ok {
				raw = fmt.Sprintf("%8.4f", pool(rs))
			}
			fmt.Printf("%-14s %-13s %12.6g %8.4f %12.6g %8.4f %8.4f %+8.4f %6.3f %8s%s\n", w.name, d.Name, ma, sa, mb, sb, pool(sets), worse, d.Bound, raw, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d workload × metric pairs disagree beyond their bound\n", bad)
		return 1
	}
	return 0
}

// child runs one full run in its own process and returns its end-to-end
// metrics from the result line, and the per-layer values the table prints
// beside them ("(name = value)" lines) under their own names.
func child(self, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	values := map[string]float64{}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
		var name string
		var v float64
		if n, _ := fmt.Sscanf(sc.Text(), " (%s = %g)", &name, &v); n == 2 {
			values[name] = v
		}
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("run reported incorrect results (%d of %d failed)", line.Failed, line.Attempted)
	}
	for name, m := range line.Metrics {
		values[name] = m.Value
	}
	return values, nil
}
