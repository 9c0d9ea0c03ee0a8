// Package chaos is a deterministic fault-injection layer for the shard
// transport: an Injector wraps any shard.Transport and injects transient
// failures, dropped replies, delays and partitions — per call type and per
// worker index — from a seeded random source, so failover, rejoin
// and partition tests replay the exact same fault schedule on every run
// (including under -race).
//
// Faults compose two ways. Imperative knobs (FailNext, SetDropDeltas,
// Partition/Heal) script a precise sequence — "the next two calls fail",
// "this worker is unreachable from here on" — the shape the transport
// suite's failover tests need. Probabilistic rules (AddRule) drive
// sustained background chaos — "5% of Infer calls to worker 3 time out" —
// drawn from the injector's seeded source.
//
// Wrap the transport: a router built over chaos.New(inner)
// (shard.NewRouterTransport) exercises its retry/failover machinery
// against the faults, and the injector's per-index faults are per-worker
// faults. All methods are safe for concurrent callers.
package chaos

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// Op selects which transport call a fault applies to.
type Op int

// The three transport call types, plus OpAny matching all of them.
const (
	OpAny Op = iota
	OpInfer
	OpDelta
	OpHealth
)

// AnyShard makes a rule or partition apply to every worker index.
const AnyShard = -1

// Rule is one probabilistic fault source: for matching calls, with the
// given probabilities (drawn from the injector's seeded source), fail the
// call before it reaches the transport, or let it through and drop the
// reply afterwards — the nastier fault, because the downstream side effect
// (an applied delta) happened while the caller sees a failure, which is
// exactly what the versioned-idempotence contract must absorb. Delay, when
// set, sleeps matching calls before anything else (bounded by the caller's
// context).
type Rule struct {
	// Op is the call type the rule matches (OpAny = all).
	Op Op
	// Shard is the worker index the rule matches (AnyShard = all).
	Shard int
	// PFail is the probability the call fails transiently before reaching
	// the wrapped transport.
	PFail float64
	// PDropReply is the probability the call runs against the wrapped
	// transport but its reply is replaced with a transient failure.
	PDropReply float64
	// Delay sleeps matching calls before dispatch (0 = none).
	Delay time.Duration
}

// Injector wraps a shard.Transport with a deterministic fault schedule.
// The zero value is unusable; build one with New.
type Injector struct {
	inner shard.Transport

	mu          sync.Mutex
	rng         *rand.Rand
	rules       []Rule
	failNext    int
	dropDeltas  bool
	partitioned map[int]bool
	injected    uint64
}

// New wraps t with an injector whose probabilistic draws come from seed —
// the same seed and call sequence replays the same fault schedule.
func New(t shard.Transport, seed int64) *Injector {
	return &Injector{inner: t, rng: rand.New(rand.NewSource(seed)), partitioned: map[int]bool{}}
}

// AddRule installs one probabilistic fault rule; rules are evaluated in
// insertion order and the first matching draw fires.
func (in *Injector) AddRule(r Rule) {
	in.mu.Lock()
	in.rules = append(in.rules, r)
	in.mu.Unlock()
}

// FailNext transiently fails the next n Infer/ApplyDelta calls (whatever
// their worker), the scripted fault the retry-budget tests count on.
func (in *Injector) FailNext(n int) {
	in.mu.Lock()
	in.failNext = n
	in.mu.Unlock()
}

// SetDropDeltas transiently fails every ApplyDelta while set, simulating a
// worker that is unreachable for replication but owes state later.
func (in *Injector) SetDropDeltas(v bool) {
	in.mu.Lock()
	in.dropDeltas = v
	in.mu.Unlock()
}

// Partition cuts the given worker indices off: every call to them
// fails transiently until Heal. Partition(AnyShard) cuts everything.
func (in *Injector) Partition(ids ...int) {
	in.mu.Lock()
	for _, id := range ids {
		in.partitioned[id] = true
	}
	in.mu.Unlock()
}

// Heal reconnects the given worker indices; with no arguments it
// heals every partition.
func (in *Injector) Heal(ids ...int) {
	in.mu.Lock()
	if len(ids) == 0 {
		in.partitioned = map[int]bool{}
	} else {
		for _, id := range ids {
			delete(in.partitioned, id)
		}
	}
	in.mu.Unlock()
}

// Injected reports how many faults have fired so far — tests assert it is
// nonzero, so a chaos suite that silently stopped injecting fails instead
// of passing vacuously.
func (in *Injector) Injected() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

func transientErr(shardID int, msg string) error {
	return &shard.TransportError{Shard: shardID, Transient: true, Err: errors.New(msg)}
}

// plan decides one call's fate under the lock: an optional delay, a
// fail-before error, and whether to drop the reply afterwards.
func (in *Injector) plan(op Op, shardID int) (delay time.Duration, failErr error, dropReply bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.partitioned[shardID] || in.partitioned[AnyShard] {
		in.injected++
		return 0, transientErr(shardID, "chaos: partitioned"), false
	}
	if op != OpHealth && in.failNext > 0 {
		in.failNext--
		in.injected++
		return 0, transientErr(shardID, "chaos: injected fault"), false
	}
	if op == OpDelta && in.dropDeltas {
		in.injected++
		return 0, transientErr(shardID, "chaos: delta outage"), false
	}
	for _, r := range in.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Shard != AnyShard && r.Shard != shardID {
			continue
		}
		delay += r.Delay
		if r.PFail > 0 && in.rng.Float64() < r.PFail {
			in.injected++
			return delay, transientErr(shardID, "chaos: injected fault"), false
		}
		if r.PDropReply > 0 && in.rng.Float64() < r.PDropReply {
			in.injected++
			dropReply = true
		}
	}
	return delay, nil, dropReply
}

func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Infer injects the planned faults around the wrapped transport's Infer.
func (in *Injector) Infer(ctx context.Context, shardID int, req *shard.InferRequest) (*core.Result, error) {
	delay, failErr, drop := in.plan(OpInfer, shardID)
	sleep(ctx, delay)
	if failErr != nil {
		return nil, failErr
	}
	res, err := in.inner.Infer(ctx, shardID, req)
	if err == nil && drop {
		return nil, transientErr(shardID, "chaos: reply dropped")
	}
	return res, err
}

// ApplyDelta injects the planned faults around the wrapped transport's
// ApplyDelta. A dropped reply leaves the delta applied downstream — the
// caller must tolerate re-delivery, which is the idempotence the versioned
// worker contract guarantees.
func (in *Injector) ApplyDelta(ctx context.Context, shardID int, sd *shard.ShardDelta) error {
	delay, failErr, drop := in.plan(OpDelta, shardID)
	sleep(ctx, delay)
	if failErr != nil {
		return failErr
	}
	err := in.inner.ApplyDelta(ctx, shardID, sd)
	if err == nil && drop {
		return transientErr(shardID, "chaos: reply dropped")
	}
	return err
}

// Health injects the planned faults around the wrapped transport's Health.
func (in *Injector) Health(ctx context.Context, shardID int) (shard.HealthInfo, error) {
	delay, failErr, drop := in.plan(OpHealth, shardID)
	sleep(ctx, delay)
	if failErr != nil {
		return shard.HealthInfo{}, failErr
	}
	info, err := in.inner.Health(ctx, shardID)
	if err == nil && drop {
		return shard.HealthInfo{}, transientErr(shardID, "chaos: reply dropped")
	}
	return info, err
}

// Close closes the wrapped transport (faults never apply to Close).
func (in *Injector) Close() error { return in.inner.Close() }
