package qos

import (
	"math"
	"testing"
	"time"
)

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatalf("fresh EWMA = %v, want 0", e.Value())
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("first observation must seed: got %v", e.Value())
	}
	e.Observe(200)
	if e.Value() != 150 {
		t.Fatalf("0.5-EWMA of 100,200 = %v, want 150", e.Value())
	}
}

func TestTokenBucket(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewTokenBucket(10, 5) // 10/s, burst 5

	// The burst drains first.
	for i := 0; i < 5; i++ {
		if ok, _ := b.AllowAt(t0, 1); !ok {
			t.Fatalf("request %d within burst refused", i)
		}
	}
	ok, retry := b.AllowAt(t0, 1)
	if ok {
		t.Fatal("6th immediate request admitted past burst")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %v, want (0,1s]", retry)
	}

	// 100ms refills exactly one token at 10/s.
	if ok, _ := b.AllowAt(t0.Add(100*time.Millisecond), 1); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := b.AllowAt(t0.Add(100*time.Millisecond), 1); ok {
		t.Fatal("second token admitted before refill")
	}

	// Refill caps at burst.
	if ok, _ := b.AllowAt(t0.Add(time.Hour), 5); !ok {
		t.Fatal("burst-sized request refused after a long idle")
	}
	if ok, _ := b.AllowAt(t0.Add(time.Hour), 1); ok {
		t.Fatal("refill exceeded burst")
	}

	// Unlimited bucket.
	u := NewTokenBucket(0, 0)
	if ok, _ := u.AllowAt(t0, 1e9); !ok {
		t.Fatal("unlimited bucket refused")
	}
}

func TestParseQuotas(t *testing.T) {
	q, err := ParseQuotas("alice=100,bob=50:100:2,*=10")
	if err != nil {
		t.Fatal(err)
	}
	if w := q.Weight("bob"); w != 2 {
		t.Fatalf("bob weight %v, want 2", w)
	}
	if w := q.Weight("alice"); w != 1 {
		t.Fatalf("alice weight %v, want 1", w)
	}
	if w := q.Weight("mallory"); w != 1 {
		t.Fatalf("default weight %v, want 1", w)
	}
	t0 := time.Unix(1000, 0)
	// mallory falls to the *=10 default: burst 10, then refused.
	if ok, _ := q.AllowAt(t0, "mallory", 10); !ok {
		t.Fatal("default burst refused")
	}
	if ok, retry := q.AllowAt(t0, "mallory", 1); ok || retry <= 0 {
		t.Fatal("default quota not enforced")
	}
	// alice has her own bucket, unaffected by mallory's drain.
	if ok, _ := q.AllowAt(t0, "alice", 100); !ok {
		t.Fatal("alice's burst refused")
	}

	// nil Quotas (empty spec) admit everything.
	nilQ, err := ParseQuotas("  ")
	if err != nil || nilQ != nil {
		t.Fatalf("empty spec: got (%v,%v), want (nil,nil)", nilQ, err)
	}
	if ok, _ := nilQ.AllowAt(t0, "anyone", 1e9); !ok {
		t.Fatal("nil quotas refused")
	}

	for _, bad := range []string{"noequals", "=5", "a=x", "a=1:x", "a=1:1:0", "a=1:2:3:4"} {
		if _, err := ParseQuotas(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

func TestQuotasMaxCharge(t *testing.T) {
	q, err := ParseQuotas("alice=100,bob=50:10,free=0,*=20:5")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.MaxCharge("alice"); got != 100 {
		t.Fatalf("alice max charge %v, want 100 (burst defaults to rate)", got)
	}
	if got := q.MaxCharge("bob"); got != 10 {
		t.Fatalf("bob max charge %v, want 10", got)
	}
	if got := q.MaxCharge("free"); !math.IsInf(got, 1) {
		t.Fatalf("unlimited tenant max charge %v, want +Inf", got)
	}
	if got := q.MaxCharge("mallory"); got != 5 {
		t.Fatalf("defaulted tenant max charge %v, want 5", got)
	}
	var nilQ *Quotas
	if got := nilQ.MaxCharge("anyone"); !math.IsInf(got, 1) {
		t.Fatalf("nil quotas max charge %v, want +Inf", got)
	}
}

func TestFairBudgetBounds(t *testing.T) {
	f := NewFairBudget(10, nil)
	if !f.Acquire("a", 4) {
		t.Fatal("uncontended acquire refused")
	}
	// a can borrow idle capacity past its equal share while total ≤ half…
	if f.Pending() != 4 {
		t.Fatalf("pending %d, want 4", f.Pending())
	}
	// …but under pressure a is clamped to its share (10/1 tenants = 10, so
	// alone it can still fill the budget).
	if !f.Acquire("a", 6) {
		t.Fatal("lone tenant refused its own full budget")
	}
	if f.Acquire("a", 1) {
		t.Fatal("acquire past capacity admitted")
	}
	f.Release("a", 10)
	if f.Pending() != 0 {
		t.Fatalf("pending %d after release, want 0", f.Pending())
	}
}

func TestFairBudgetClampsHotTenant(t *testing.T) {
	f := NewFairBudget(10, nil)
	// Hot tenant fills the whole budget while alone.
	if !f.Acquire("hot", 10) {
		t.Fatal("lone tenant refused the budget")
	}
	// A second tenant cannot get in until space frees…
	if f.Acquire("cold", 1) {
		t.Fatal("acquire past capacity admitted")
	}
	f.Release("hot", 4) // total 6, still above half
	// …but once it does, the cold tenant is admitted even under pressure
	// (its own usage is below its share)…
	if !f.Acquire("cold", 1) {
		t.Fatal("cold tenant starved under pressure")
	}
	// …while the hot tenant, above its equal share of 5, is refused.
	if f.Acquire("hot", 1) {
		t.Fatal("hot tenant exceeded its fair share under pressure")
	}
}

func TestFairBudgetWeights(t *testing.T) {
	weights := map[string]float64{"big": 3, "small": 1}
	f := NewFairBudget(8, func(t string) float64 { return weights[t] })
	// Both active, pressure on: big's share is 8*3/4 = 6, small's 8*1/4 = 2.
	if !f.Acquire("big", 5) || !f.Acquire("small", 2) {
		t.Fatal("setup acquires refused")
	}
	if !f.Acquire("big", 1) {
		t.Fatal("big refused within its weighted share")
	}
	if f.Acquire("small", 1) {
		t.Fatal("small exceeded its weighted share under pressure")
	}
}

func TestFairBudgetUnbounded(t *testing.T) {
	f := NewFairBudget(0, nil)
	if !f.Acquire("t", 1<<20) {
		t.Fatal("unbounded budget refused")
	}
	if f.Pending() != 1<<20 {
		t.Fatalf("unbounded budget still tracks occupancy: %d", f.Pending())
	}
}

func TestDetectorDepthHysteresis(t *testing.T) {
	d := NewDetector(DetectorConfig{})
	if d.Update(89, 100) {
		t.Fatal("tripped below the high watermark")
	}
	if !d.Update(90, 100) {
		t.Fatal("did not trip at the high watermark")
	}
	// Hysteresis: stays degraded between the watermarks.
	if !d.Update(70, 100) {
		t.Fatal("cleared between watermarks")
	}
	if d.Update(50, 100) {
		t.Fatal("did not clear at the low watermark")
	}
	if got := d.Transitions(); got != 2 {
		t.Fatalf("transitions %d, want 2", got)
	}
}

func TestDetectorLatencySignal(t *testing.T) {
	d := NewDetector(DetectorConfig{TripLatency: 100 * time.Millisecond})
	for i := 0; i < 50; i++ {
		d.ObserveFlush(time.Second)
	}
	if !d.Degraded() {
		t.Fatal("latency signal did not trip")
	}
	if d.FlushEWMA() < 100*time.Millisecond {
		t.Fatalf("EWMA %v after 1s flushes", d.FlushEWMA())
	}
	for i := 0; i < 200; i++ {
		d.ObserveFlush(time.Millisecond)
	}
	if d.Degraded() {
		t.Fatal("latency signal did not clear")
	}
	// Depth and latency signals OR: depth trip keeps it degraded.
	d.Update(100, 100)
	if !d.Degraded() {
		t.Fatal("depth signal ignored")
	}
}

// TestDetectorShedProbe pins the latency signal's recovery path: while
// degraded, ShedAt admits exactly one probe per interval (the flush whose
// ObserveFlush sample lets the EWMA decay), sheds everything else, and a
// new degraded episode restarts the probe clock from its first shed.
func TestDetectorShedProbe(t *testing.T) {
	d := NewDetector(DetectorConfig{TripLatency: 100 * time.Millisecond, ProbeInterval: time.Second})
	t0 := time.Unix(1000, 0)
	if d.ShedAt(t0) {
		t.Fatal("healthy detector shed")
	}
	d.ObserveFlush(time.Second)
	if !d.Degraded() {
		t.Fatal("latency signal did not trip")
	}
	// The first sheddable request of the episode is shed and starts the
	// probe clock — tripping must not trivially admit one request.
	if !d.ShedAt(t0) {
		t.Fatal("first degraded request admitted")
	}
	if !d.ShedAt(t0.Add(500 * time.Millisecond)) {
		t.Fatal("request inside the probe interval admitted")
	}
	// One probe per interval: admitted, then shedding resumes.
	if d.ShedAt(t0.Add(time.Second)) {
		t.Fatal("probe not admitted after the interval")
	}
	if !d.ShedAt(t0.Add(time.Second + time.Millisecond)) {
		t.Fatal("second request right after the probe admitted")
	}
	// Probe flushes decay the EWMA until the signal clears without any
	// non-probe flush ever running.
	for i := 0; i < 100 && d.Degraded(); i++ {
		d.ObserveFlush(time.Millisecond)
	}
	if d.Degraded() {
		t.Fatal("probe samples never cleared the latency trip")
	}
	if d.ShedAt(t0.Add(2 * time.Second)) {
		t.Fatal("recovered detector shed")
	}
	// Re-trip: the new episode starts a fresh probe clock, so its first
	// request is shed even though the last probe is long past.
	for i := 0; i < 100 && !d.Degraded(); i++ {
		d.ObserveFlush(time.Second)
	}
	if !d.Degraded() {
		t.Fatal("did not re-trip")
	}
	if !d.ShedAt(t0.Add(time.Hour)) {
		t.Fatal("new episode inherited the old probe clock")
	}
}
