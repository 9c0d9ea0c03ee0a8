package main

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The closed loop is a few callers that each wait for their reply before
// sending again. An open loop was measured and rejected for this box: the
// generator's own sleep overshoot (p95 ≈ 3 ms) swamps a 0.2 ms request, so an
// arrival schedule would measure the timer.
//
// The measured phase is a sequence of slices: the callers run for
// sizes.slice, stop, and the probe (below) runs for sizes.probe on the idle
// server. Every metric is computed over all the slices together.

// phaseResult is what the closed loop observed, over one slice or over the
// slices of a phase added up.
type phaseResult struct {
	wall     time.Duration   // callers started → last read answered, probes excluded
	lat      []time.Duration // latency of every read answered 200 and well-formed
	slices   []int           // reads answered in each slice
	sent     int             // reads attempted
	failed   int             // reads refused, failed or malformed
	sloOK    int             // reads answered correctly within the workload's limit
	deltaLat []time.Duration // latency of every delta applied
	deltaBad int             // deltas refused or failed
	firstErr error
	// slowdown is the probe's reading of the box between the slices: its
	// time per unit of work over the nominal time, averaged over the probes.
	slowdown float64
}

// add appends slice s to p.
func (p *phaseResult) add(s phaseResult) {
	p.wall += s.wall
	p.lat = append(p.lat, s.lat...)
	p.slices = append(p.slices, len(s.lat))
	p.sent += s.sent
	p.failed += s.failed
	p.sloOK += s.sloOK
	p.deltaLat = append(p.deltaLat, s.deltaLat...)
	p.deltaBad += s.deltaBad
	if p.firstErr == nil {
		p.firstErr = s.firstErr
	}
}

// readers is a closed loop of conns callers walking one shared request
// stream from a moving cursor.
type readers struct {
	st     *stack
	reqs   *stream
	conns  int
	limit  time.Duration // the workload's latency limit
	wr     *writer       // nil where no deltas arrive beside the reads
	cursor atomic.Int64
}

// phase runs slices of the closed loop, each followed by the probe: as many
// pairs as fit into total, and at least one.
func (r *readers) phase(total time.Duration, sz sizes, pb *probe) phaseResult {
	var out phaseResult
	slow := 0.0
	n := max(int(total/(sz.slice+sz.probe)), 1)
	for i := 0; i < n; i++ {
		out.add(r.run(sz.slice))
		s, err := pb.run(sz.probe)
		if err != nil && out.firstErr == nil {
			out.failed++
			out.firstErr = err
		}
		slow += s
	}
	out.slowdown = slow / float64(n)
	return out
}

// run drives the closed loop for dur: no read starts after it. With a
// writer, one delta is posted half way through.
func (r *readers) run(dur time.Duration) phaseResult {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]phaseResult, r.conns)
	var wg sync.WaitGroup
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func(p *phaseResult) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				i := int(r.cursor.Add(1) - 1)
				resp, err := r.st.infer(r.reqs.body(i))
				d := time.Since(t0)
				p.sent++
				if err == nil && (len(resp.Preds) != r.reqs.fan || len(resp.Depths) != r.reqs.fan) {
					err = fmt.Errorf("request %d: %d preds, %d depths for %d nodes", i, len(resp.Preds), len(resp.Depths), r.reqs.fan)
				}
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.lat = append(p.lat, d)
				if d <= r.limit {
					p.sloOK++
				}
			}
		}(&parts[c])
	}
	var out phaseResult
	var writing sync.WaitGroup
	if r.wr != nil {
		writing.Add(1)
		go func() {
			defer writing.Done()
			time.Sleep(dur / 2)
			r.wr.post(&out)
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	writing.Wait()
	for i := range parts {
		p := &parts[i]
		out.lat = append(out.lat, p.lat...)
		out.sent += p.sent
		out.failed += p.failed
		out.sloOK += p.sloOK
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// latencies returns the ascending latencies, in milliseconds, of every read
// the phase answered.
func (p phaseResult) latencies() []float64 {
	lat := millis(p.lat)
	sort.Float64s(lat)
	return lat
}

// sliceSpread is (max − min) ÷ median of the number of reads answered in
// each slice: how uneven the phase was. It changes no metric; it is printed
// so that a disturbed run can be told from a slow program.
func (p phaseResult) sliceSpread() float64 {
	counts := make([]float64, len(p.slices))
	for i, n := range p.slices {
		counts[i] = float64(n)
	}
	asc := sorted(counts)
	if m := median(asc); m > 0 {
		return (asc[len(asc)-1] - asc[0]) / m
	}
	return 0
}

// writer posts the delta stream in order, one connection, one at a time.
type writer struct {
	st   *stack
	ds   *deltaStream
	next int // deltas posted so far, applied or not
}

// post sends the next delta and records its outcome.
func (w *writer) post(into *phaseResult) {
	if w.next >= len(w.ds.bodies) {
		into.deltaBad++
		if into.firstErr == nil {
			into.firstErr = fmt.Errorf("delta stream exhausted after %d deltas", w.next)
		}
		return
	}
	t0 := time.Now()
	err := w.st.addNodes(w.ds.bodies[w.next])
	d := time.Since(t0)
	w.next++
	if err != nil {
		into.deltaBad++
		if into.firstErr == nil {
			into.firstErr = err
		}
		return
	}
	into.deltaLat = append(into.deltaLat, d)
}

// probe is the yardstick the time metrics are calibrated with. The boxes this
// benchmark runs on share their memory system with other tenants, and for
// tens of seconds at a time everything that misses the cache or enters the
// kernel runs 10–40 % slower (README.md, "The probe"). The probe is a fixed
// piece of work of that kind, owned by the benchmark and calling nothing of
// the program: on every core, gathers of random 40-float rows from a 32 MB
// matrix, then keep-alive HTTP round trips to an empty handler. Run between
// the slices of a phase, its time per unit of work over the nominal time says
// how slow the box was during that phase.
type probe struct {
	rows  []float64 // probeRows × probeWidth
	picks [][]int32 // per core, the rows its gathers read, probeUnit at a time
	next  []int     // per core, where in picks its next gather starts
	null  *stack    // a listener with an empty handler, and its client
	body  []byte
}

const (
	probeRows  = 100_000
	probeWidth = 40
	probeUnit  = 2_000 // rows per gather unit
	// The probe's time per unit on the box the benchmark was defined on when
	// nothing disturbed it, in milliseconds. They only fix the scale of
	// loadgen.box_slowdown, and with it of the calibrated metrics.
	nominalGatherMs = 0.105
	nominalHTTPMs   = 0.041
)

func newProbe(body []byte) (*probe, error) {
	p := &probe{rows: make([]float64, probeRows*probeWidth), body: body}
	for i := range p.rows {
		p.rows[i] = 1
	}
	x := uint64(88172645463325252) // xorshift64: the picks are the same on every run
	for c := 0; c < runtime.NumCPU(); c++ {
		picks := make([]int32, probeRows) // a gather never finds its rows in the cache
		for i := range picks {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			picks[i] = int32(x % probeRows)
		}
		p.picks = append(p.picks, picks)
	}
	p.next = make([]int, len(p.picks))
	front, err := listen(http.HandlerFunc(nullHandler))
	if err != nil {
		return nil, err
	}
	p.null = &stack{client: newClient(len(p.picks)), front: front}
	return p, nil
}

// nullHandler answers every request with a well-formed one-node reply.
func nullHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"preds":[0],"depths":[1]}` + "\n"))
}

func (p *probe) close() {
	p.null.front.close()
	p.null.client.CloseIdleConnections()
}

// probeSink keeps the gather's sums alive.
var probeSink atomic.Uint64

// run spends d on the probe, half on each kind of work, and returns the
// box's slowdown: the mean of the two kinds' median unit time over nominal.
func (p *probe) run(d time.Duration) (float64, error) {
	gather, _ := p.unitMs(d/2, func(core int) error {
		from := p.next[core]
		p.next[core] = (from + probeUnit) % probeRows
		sum := 0.0
		for _, row := range p.picks[core][from : from+probeUnit] {
			for _, v := range p.rows[int(row)*probeWidth : int(row+1)*probeWidth] {
				sum += v
			}
		}
		probeSink.Add(uint64(sum))
		return nil
	})
	roundTrip, err := p.unitMs(d/2, func(int) error {
		_, err := p.null.infer(p.body)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("probe round trip: %w", err)
	}
	return (gather/nominalGatherMs + roundTrip/nominalHTTPMs) / 2, nil
}

// unitMs runs unit over and over on every core for d and returns the median
// time of one call, in milliseconds, and the errors that stopped a core.
func (p *probe) unitMs(d time.Duration, unit func(core int) error) (float64, error) {
	times := make([][]time.Duration, len(p.picks))
	errs := make([]error, len(p.picks))
	var wg sync.WaitGroup
	for c := range times {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for start := time.Now(); time.Since(start) < d && errs[c] == nil; {
				t0 := time.Now()
				errs[c] = unit(c)
				times[c] = append(times[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	for _, ts := range times {
		all = append(all, ts...)
	}
	return median(millis(all)), errors.Join(errs...)
}
