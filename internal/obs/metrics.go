package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bucket upper bounds in
// seconds: 10µs to 10s, roughly exponential. They cover the stack's whole
// dynamic range — a ≈ 50µs cache hit and a ≈ 70µs point read fall in
// different buckets — through multi-second deep-propagation batches.
var DefBuckets = []float64{
	0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry is an insertion-ordered set of metric families with a
// Prometheus text-format encoder. Registration (Counter, Gauge,
// Histogram and their Vec variants) takes a lock; the returned
// instruments update with single atomic operations, so the hot path
// never contends with scrapes.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a fixed label-name set and one child
// per label-value combination.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.RWMutex
	order    []string // child keys in first-use order
	children map[string]child
	// collect, when set, replaces the children: it emits the family's
	// samples at scrape time (GaugeVec.CollectFunc).
	collect func(emit func(v float64, values ...string))
}

type child interface {
	write(w *bufio.Writer, f *family, labels string)
}

func (r *Registry) family(name, help string, kind metricKind, buckets []float64, labels ...string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic("obs: metric " + name + " re-registered with a different shape")
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: map[string]child{},
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func (f *family) child(values []string, make func() child) child {
	if len(values) != len(f.labels) {
		panic("obs: metric " + f.name + ": wrong label value count")
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = make()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Counter is a monotonically increasing counter. Updates are one atomic
// add.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w *bufio.Writer, f *family, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", f.name, labels, c.v.Load())
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil)
	return f.child(nil, func() child { return new(Counter) }).(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or returns the existing) labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels...)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() child { return new(Counter) }).(*Counter)
}

// Gauge is a settable value. A Gauge may instead be backed by a
// function evaluated at scrape time (see GaugeFunc / GaugeVec.WithFunc),
// in which case Set/Add are ignored.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
	fn   func() float64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (not atomic with respect to concurrent Add; use for
// single-writer gauges).
func (g *Gauge) Add(delta float64) { g.Set(g.Value() + delta) }

// Value returns the current value (calling the backing function for
// func gauges).
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) write(w *bufio.Writer, f *family, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(g.Value()))
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil)
	return f.child(nil, func() child { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers an unlabeled gauge whose value is computed by fn
// at each scrape.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil)
	f.child(nil, func() child { return &Gauge{fn: fn} })
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns the existing) labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels...)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() child { return new(Gauge) }).(*Gauge)
}

// WithFunc registers a scrape-time function gauge for the given label
// values.
func (v *GaugeVec) WithFunc(fn func() float64, values ...string) {
	v.f.child(values, func() child { return &Gauge{fn: fn} })
}

// CollectFunc makes fn the family's only source of samples: each scrape
// calls it once and writes what it emits, so a family read off one snapshot
// (per-shard health, say) is consistent and costs one snapshot.
func (v *GaugeVec) CollectFunc(fn func(emit func(value float64, values ...string))) {
	v.f.mu.Lock()
	v.f.collect = fn
	v.f.mu.Unlock()
}

// Histogram is a fixed-bucket latency histogram: observations are one
// atomic add into the right bucket plus a CAS-accumulated sum.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of everything observed since
// the histogram was created, the way Prometheus' histogram_quantile does:
// find the bucket the rank falls in and interpolate linearly inside it (the
// first bucket starts at 0). A rank in the +Inf bucket reads as the last
// finite bound — the histogram knows nothing beyond it — and an empty
// histogram reads 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	lower, cum := 0.0, 0.0
	for i, ub := range h.upper {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			return lower + (ub-lower)*(rank-cum)/c
		}
		cum, lower = cum+c, ub
	}
	return lower
}

func (h *Histogram) write(w *bufio.Writer, f *family, labels string) {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var cum uint64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, joinLabels(inner, `le="`+formatFloat(ub)+`"`), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, joinLabels(inner, `le="+Inf"`), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, h.count.Load())
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be strictly increasing")
		}
	}
	return &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Histogram registers (or returns the existing) unlabeled histogram
// with the given bucket upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram, buckets)
	return f.child(nil, func() child { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns the existing) labeled histogram
// family with the given bucket upper bounds (nil means DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, buckets, labels...)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() child { return newHistogram(v.f.buckets) }).(*Histogram)
}

// WritePrometheus encodes every registered family in the Prometheus
// text exposition format (version 0.0.4), families in registration
// order, children in first-use order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.RLock()
		collect := f.collect
		order := append([]string(nil), f.order...)
		children := make([]child, len(order))
		for i, key := range order {
			children[i] = f.children[key]
		}
		f.mu.RUnlock()
		if collect != nil {
			collect(func(v float64, values ...string) {
				fmt.Fprintf(bw, "%s%s %s\n", f.name, formatLabels(f.labels, values), formatFloat(v))
			})
			continue
		}
		for i, c := range children {
			c.write(bw, f, formatLabels(f.labels, strings.Split(order[i], "\x00")))
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// formatLabels renders {k="v",...}; "" for an unlabeled child.
func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// joinLabels merges an already-rendered inner label list with one extra
// pair into a braced set.
func joinLabels(inner, extra string) string {
	if inner == "" {
		return "{" + extra + "}"
	}
	return "{" + inner + "," + extra + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
