// Package qos provides the overload-control primitives the serving daemon
// composes in front of its backend: per-tenant token-bucket quotas, a
// weighted-fair bounded admission budget, an exponentially-weighted moving
// average of backend-call latency (the Retry-After estimate), and an
// overload detector with hysteresis on budget depth and latency.
//
// The pieces are deliberately mechanism, not policy: every decision takes
// an explicit clock (tests never sleep), every structure is safe for
// concurrent callers, and none of them knows what a "request" is — the
// daemon decides what to count (targets, calls) and what a trip means
// (shed NAP misses, serve ModeFixed; see ARCHITECTURE.md, "Overload
// control").
package qos

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// EWMA is a thread-safe exponentially-weighted moving average. The first
// observation seeds the average; each later one folds in with weight Alpha.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	v     float64
	seen  bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0,1]; higher
// alpha follows recent observations more closely.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample into the average.
func (e *EWMA) Observe(x float64) {
	e.mu.Lock()
	if !e.seen {
		e.v, e.seen = x, true
	} else {
		e.v = e.alpha*x + (1-e.alpha)*e.v
	}
	e.mu.Unlock()
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.v
}

// TokenBucket is a classic token bucket: Rate tokens per second refill up
// to Burst. A zero or negative rate means unlimited.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; ≤0 = unlimited
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a full bucket refilling at rate tokens/second up
// to burst. rate ≤ 0 builds an unlimited bucket; burst ≤ 0 defaults to
// rate (one second of quota).
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = rate
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// AllowAt takes n tokens at the given instant if available and reports
// whether it did; on refusal it returns how long the caller should wait
// before n tokens will have refilled (the Retry-After hint).
func (b *TokenBucket) AllowAt(now time.Time, n float64) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	wait := time.Duration((n - b.tokens) / b.rate * float64(time.Second))
	return false, wait
}

// Limit is one tenant's quota: a request rate (per second, ≤0 unlimited), a
// burst allowance, and a fairness weight for admission-budget sharing.
type Limit struct {
	Rate   float64
	Burst  float64
	Weight float64
}

// Quotas maps tenants to token buckets plus a default applied to tenants
// without an explicit entry. The zero value (or nil) admits everything with
// weight 1.
type Quotas struct {
	mu      sync.Mutex
	limits  map[string]Limit
	def     Limit // the "*" entry; Rate ≤ 0 = unlimited
	hasDef  bool
	buckets map[string]*TokenBucket
}

// ParseQuotas parses a tenant-quota spec of comma-separated
// tenant=rate[:burst[:weight]] entries, e.g. "alice=100,bob=50:100:2,*=10".
// rate is tokens/second (0 = unlimited) — what one token buys is the
// caller's policy (the daemon charges one token per target node, making
// rates targets/second) — burst defaults to rate, weight (default 1) sets
// the tenant's share of the admission budget under pressure. The "*" tenant is the default for unlisted tenants; without it
// unlisted tenants are unlimited at weight 1. An empty spec returns nil
// (no quotas at all).
func ParseQuotas(spec string) (*Quotas, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	q := &Quotas{limits: map[string]Limit{}, buckets: map[string]*TokenBucket{}}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("qos: bad quota entry %q (want tenant=rate[:burst[:weight]])", entry)
		}
		parts := strings.Split(val, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("qos: bad quota entry %q (too many fields)", entry)
		}
		lim := Limit{Weight: 1}
		var err error
		if lim.Rate, err = strconv.ParseFloat(parts[0], 64); err != nil {
			return nil, fmt.Errorf("qos: bad rate in %q: %w", entry, err)
		}
		lim.Burst = lim.Rate
		if len(parts) > 1 {
			if lim.Burst, err = strconv.ParseFloat(parts[1], 64); err != nil {
				return nil, fmt.Errorf("qos: bad burst in %q: %w", entry, err)
			}
		}
		if len(parts) > 2 {
			if lim.Weight, err = strconv.ParseFloat(parts[2], 64); err != nil {
				return nil, fmt.Errorf("qos: bad weight in %q: %w", entry, err)
			}
			if lim.Weight <= 0 {
				return nil, fmt.Errorf("qos: weight in %q must be > 0", entry)
			}
		}
		if name == "*" {
			q.def, q.hasDef = lim, true
		} else {
			q.limits[name] = lim
		}
	}
	return q, nil
}

// limit resolves a tenant's Limit (explicit, else the "*" default, else
// unlimited at weight 1).
func (q *Quotas) limit(tenant string) Limit {
	if lim, ok := q.limits[tenant]; ok {
		return lim
	}
	if q.hasDef {
		return q.def
	}
	return Limit{Weight: 1}
}

// AllowAt charges n tokens to the tenant's bucket at the given instant.
// A nil Quotas admits everything. On refusal the returned duration is the
// Retry-After hint.
func (q *Quotas) AllowAt(now time.Time, tenant string, n float64) (bool, time.Duration) {
	if q == nil {
		return true, 0
	}
	q.mu.Lock()
	b, ok := q.buckets[tenant]
	if !ok {
		lim := q.limit(tenant)
		b = NewTokenBucket(lim.Rate, lim.Burst)
		q.buckets[tenant] = b
	}
	q.mu.Unlock()
	return b.AllowAt(now, n)
}

// MaxCharge reports the largest single charge the tenant's bucket can ever
// admit — its burst, or +Inf for unlimited tenants and a nil Quotas. A
// charge above it can never succeed no matter how long the caller waits
// (refill caps at burst), so callers turn such requests into permanent
// errors instead of retryable ones.
func (q *Quotas) MaxCharge(tenant string) float64 {
	if q == nil {
		return math.Inf(1)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	lim := q.limit(tenant)
	if lim.Rate <= 0 {
		return math.Inf(1)
	}
	if lim.Burst <= 0 {
		return lim.Rate // NewTokenBucket's burst default
	}
	return lim.Burst
}

// Weight returns the tenant's fairness weight (1 for a nil Quotas or an
// unlisted tenant without a default).
func (q *Quotas) Weight(tenant string) float64 {
	if q == nil {
		return 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.limit(tenant).Weight
}

// FairBudget is a bounded budget of pending work with weighted-fair
// admission, the deficit-style fair queue's admission-time analogue: since
// overload rejects must cost microseconds (a fast 429, not a parked
// goroutine), fairness cannot reorder a queue — instead it clamps how much
// of the budget one tenant may hold. When total occupancy is at or below
// half the capacity any tenant may use the idle space (work-conserving);
// above it, a tenant is additionally capped at its weighted share of the
// capacity, so a flood from one hot tenant saturates only its own share
// and other tenants' requests keep being admitted.
//
// Capacity ≤ 0 disables bounding: every Acquire succeeds but occupancy is
// still tracked (the daemon's pending_targets gauge).
type FairBudget struct {
	mu       sync.Mutex
	capacity int
	total    int
	used     map[string]int
	// weight resolves a tenant's fairness weight; nil means weight 1 for
	// everyone.
	weight func(tenant string) float64
}

// NewFairBudget returns a budget of capacity units. weight resolves tenant
// fairness weights (nil = all equal); only the weights of tenants currently
// holding units count toward the share denominator, so a lone tenant is
// never clamped below what contention requires.
func NewFairBudget(capacity int, weight func(tenant string) float64) *FairBudget {
	return &FairBudget{capacity: capacity, used: map[string]int{}, weight: weight}
}

// Acquire takes n units for the tenant if the budget and the tenant's fair
// share allow it.
func (f *FairBudget) Acquire(tenant string, n int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.capacity > 0 {
		if f.total+n > f.capacity {
			return false
		}
		// Under pressure (more than half the budget in use after this
		// acquire), clamp the tenant to its weighted share.
		if 2*(f.total+n) > f.capacity && f.used[tenant]+n > f.shareLocked(tenant) {
			return false
		}
	}
	f.total += n
	f.used[tenant] += n
	return true
}

// shareLocked computes the tenant's weighted share of the capacity over
// the tenants currently holding units (plus the asking tenant). Callers
// hold f.mu.
func (f *FairBudget) shareLocked(tenant string) int {
	w := func(t string) float64 {
		if f.weight == nil {
			return 1
		}
		return f.weight(t)
	}
	sum := 0.0
	seen := false
	for t, u := range f.used {
		if u > 0 {
			sum += w(t)
			if t == tenant {
				seen = true
			}
		}
	}
	if !seen {
		sum += w(tenant)
	}
	share := int(float64(f.capacity) * w(tenant) / sum)
	if share < 1 {
		share = 1
	}
	return share
}

// Release returns n units taken by Acquire.
func (f *FairBudget) Release(tenant string, n int) {
	f.mu.Lock()
	f.total -= n
	if u := f.used[tenant] - n; u > 0 {
		f.used[tenant] = u
	} else {
		delete(f.used, tenant)
	}
	f.mu.Unlock()
}

// Pending reports the units currently held.
func (f *FairBudget) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Capacity reports the configured bound (≤ 0 = unbounded).
func (f *FairBudget) Capacity() int { return f.capacity }

// The depth signal's hysteresis thresholds, as fractions of the admission
// budget's capacity (the latency signal clears at half its TripLatency).
const (
	tripUtilization  = 0.9
	clearUtilization = 0.5
)

// DetectorConfig parametrizes the overload detector. TripLatency is the
// flush-latency EWMA above which the latency signal trips (zero disables
// it). ProbeInterval is how often ShedAt admits one request while degraded
// (default: TripLatency, or 100ms when the latency signal is disabled). It
// stays settable for serve's shed-recovery test, whose nanosecond interval
// makes every request after an episode's first a probe, so recovery is
// deterministic on any host.
type DetectorConfig struct {
	TripLatency   time.Duration
	ProbeInterval time.Duration
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.ProbeInterval <= 0 {
		if c.TripLatency > 0 {
			c.ProbeInterval = c.TripLatency
		} else {
			c.ProbeInterval = 100 * time.Millisecond
		}
	}
	return c
}

// Detector decides when the daemon is overloaded, with hysteresis so the
// degraded mode does not flap: depth trips when pending work exceeds
// tripUtilization of capacity and clears only once it falls below
// clearUtilization; latency trips when the flush-latency EWMA exceeds
// TripLatency and clears below TripLatency/2. Degraded is the OR of the two
// signals.
type Detector struct {
	mu          sync.Mutex
	cfg         DetectorConfig
	lat         *EWMA
	depthTrip   bool
	latTrip     bool
	degraded    bool
	transitions int64
	lastProbe   time.Time // last ShedAt probe admission this degraded episode
}

// NewDetector returns a detector with the given thresholds (zero fields
// take the documented defaults).
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults(), lat: NewEWMA(0.2)}
}

// ObserveFlush folds one flush latency into the EWMA and re-evaluates the
// latency signal.
func (d *Detector) ObserveFlush(latency time.Duration) {
	d.lat.Observe(float64(latency))
	if d.cfg.TripLatency <= 0 {
		return
	}
	v := time.Duration(d.lat.Value())
	d.mu.Lock()
	if !d.latTrip && v > d.cfg.TripLatency {
		d.latTrip = true
	} else if d.latTrip && v < d.cfg.TripLatency/2 {
		d.latTrip = false
	}
	d.updateLocked()
	d.mu.Unlock()
}

// Update re-evaluates the depth signal against the current pending load
// and capacity (capacity ≤ 0 disables the depth signal) and returns the
// combined degraded state.
func (d *Detector) Update(pending, capacity int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if capacity > 0 {
		util := float64(pending) / float64(capacity)
		if !d.depthTrip && util >= tripUtilization {
			d.depthTrip = true
		} else if d.depthTrip && util <= clearUtilization {
			d.depthTrip = false
		}
	}
	d.updateLocked()
	return d.degraded
}

// updateLocked recomputes the combined state; callers hold d.mu.
func (d *Detector) updateLocked() {
	next := d.depthTrip || d.latTrip
	if next != d.degraded {
		d.degraded = next
		d.transitions++
		if !next {
			// A fresh degraded episode starts its probe clock from the
			// first shed decision, not from a probe of a past episode.
			d.lastProbe = time.Time{}
		}
	}
}

// ShedAt decides whether a sheddable request arriving at now should be
// rejected. Healthy: never. Degraded: yes — except that once per
// ProbeInterval one request is admitted as a probe. Probes are the latency
// signal's recovery path: ObserveFlush is its only source of samples, and
// a latency trip that shed everything would also shed the very flushes it
// needs to observe that the overload has passed — tripping forever. The
// first sheddable request of an episode is shed (the probe clock starts
// there), so shedding is never trivially bypassed at trip time.
func (d *Detector) ShedAt(now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.degraded {
		return false
	}
	if d.lastProbe.IsZero() {
		d.lastProbe = now
		return true
	}
	if now.Sub(d.lastProbe) >= d.cfg.ProbeInterval {
		d.lastProbe = now
		return false
	}
	return true
}

// Peek reports what the combined degraded state would be if the depth
// signal were re-evaluated against the given load — without committing
// the evaluation. Monitoring reads (GET /stats, /metrics scrapes) use it
// so an idle server whose budget drained reports healthy, while the
// detector's stored state — which ShedAt and the transition counter act
// on — can only be flipped by the request path via Update and
// ObserveFlush, never by a scrape racing a request.
func (d *Detector) Peek(pending, capacity int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	depth := d.depthTrip
	if capacity > 0 {
		util := float64(pending) / float64(capacity)
		if !depth && util >= tripUtilization {
			depth = true
		} else if depth && util <= clearUtilization {
			depth = false
		}
	}
	return depth || d.latTrip
}

// Degraded reports the current combined state.
func (d *Detector) Degraded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}

// Transitions counts degraded-state flips since construction (a /stats
// counter: a flapping detector shows up as a high transition count).
func (d *Detector) Transitions() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.transitions
}

// FlushEWMA returns the current flush-latency moving average.
func (d *Detector) FlushEWMA() time.Duration {
	return time.Duration(d.lat.Value())
}
