// Package shard turns the single-address-space serving engine into a
// sharded serving system whose answers are bit-identical to one
// core.Deployment over the whole graph.
//
// NAP's locality (the paper's key serving property) is what makes this
// cheap: a batch of targets only ever touches its T-hop supporting ball, so
// a shard that owns a set of nodes can answer for them from a bounded
// subgraph — its owned nodes plus a *halo* of ghost nodes within the
// partition's halo radius R (serving requires R ≥ the operating point's
// TMax). Three pieces cooperate:
//
//   - Partition splits the node set into P edge-cut shards: greedy
//     BFS-grown parts under a balance cap (StrategyBFS, the default — grown
//     parts keep supporting balls mostly shard-local) or a trivial
//     contiguous id-range fallback (StrategyContiguous).
//
//   - Each shard wraps a core.Deployment over its owned+halo subgraph with
//     a local↔global remap. Exactness hinges on three invariants: every
//     *interior* node (within R−1 hops of the owned set) keeps its complete
//     adjacency row, so supporting-set BFS and propagation see exactly the
//     global neighborhoods; the local Â operator is built from *global*
//     looped degrees (sparse.NewNormalized), so every entry it emits equals
//     the global one bitwise even though boundary rows are truncated; and
//     the stationary state is a localized *view* of
//     the global rank-1 decomposition (core.Stationary.LocalView), carrying
//     an exact copy of the global weighted sum — X(∞) is a whole-graph
//     quantity no subgraph can reproduce, and each worker's copy is
//     re-synced by its versioned deltas.
//
//   - Worker holds one shard's runtime state (the local deployment plus a
//     graph version counter) behind a small call surface: Infer, a
//     versioned idempotent ApplyDelta, and Health. NewWorker bootstraps a
//     shard deterministically from the model and the global graph — rerun
//     the same partition, recompute the stationary state, cut the halo —
//     so a worker process started with the router's inputs holds
//     bit-identical state with no bulk transfer.
//
//   - Transport is the router↔worker boundary: LocalTransport dispatches
//     to in-process Workers (the classic single-process mode),
//     HTTPTransport speaks a length-checked binary codec (wire.go) to
//     worker processes (WorkerHandler, cmd/naiserve -shard-worker). Errors
//     are classified — transient (retried with backoff), stale version
//     (healed by delta-log replay), permanent — and a shard that stays
//     unreachable surfaces as ErrUnavailable, which the serving layer maps
//     to 503.
//
//   - Router fronts the shards through a Transport: Infer buckets targets
//     by owning shard, fans the per-shard calls across goroutines
//     (internal/par), and scatters the per-shard results back into request
//     order. ApplyDelta routes a graph.Delta to the owning shards: the
//     global graph and stationary state absorb it first, then the router
//     plans each shard's incremental halo re-expansion — only distances
//     reachable through the delta's dirty rows are relaxed — and ships a
//     versioned ShardDelta; the worker repairs its normalized adjacency
//     with core.Deployment.PatchAdjacency — a degree-factor patch over the
//     named rows, the same machinery the unsharded incremental refresh
//     uses. Every ShardDelta is also kept in
//     a per-shard log, so a worker that missed deltas (crashed, restarted,
//     partitioned) is caught up by replay — on its next Infer, or by the
//     background health probe — without restarting the router.
//
// Per-target predictions and depths are batch-invariant in the engine, so
// splitting one request across shards never changes an answer; MAC totals
// and per-batch times reflect the sharded execution (each shard batch is
// charged Algorithm 1's per-batch stationary term), exactly as BatchSize
// splitting does.
//
// Concurrency contract: like core.Deployment, a Router is read-only during
// Infer — any number of concurrent Infer calls is safe — while ApplyDelta
// mutates router, global and shard state and must be exclusive.
// internal/serve enforces this with its RWMutex when the Router is the
// serving Backend.
package shard

import (
	"fmt"

	"repro/internal/graph"
)

// Strategy selects how Partition assigns node ownership.
type Strategy int

const (
	// StrategyBFS grows each shard from a seed by breadth-first search
	// under a balance cap, keeping shards connected where the graph allows
	// it so supporting balls stay mostly shard-local (small halos).
	StrategyBFS Strategy = iota
	// StrategyContiguous assigns contiguous id ranges — the trivial
	// fallback: no topology awareness, but deterministic, O(n), and useful
	// as a worst-case-halo comparison point.
	StrategyContiguous
)

// String names the strategy for logs and benchmarks.
func (s Strategy) String() string {
	switch s {
	case StrategyBFS:
		return "bfs"
	case StrategyContiguous:
		return "contiguous"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Assignment is a P-way ownership map over a graph's nodes: every node is
// owned by exactly one shard. Halos are not part of the assignment — they
// depend on the halo radius and are derived per shard by the Router.
type Assignment struct {
	// P is the number of shards.
	P int
	// Owner[v] is the shard owning node v.
	Owner []int32
	// Owned[p] lists shard p's nodes, sorted ascending.
	Owned [][]int
}

// Partition splits g's nodes into p edge-cut shards. StrategyBFS grows each
// shard from the lowest-id unassigned seed by BFS until it reaches a
// balance cap of ceil(remaining/shards-left) nodes (re-seeding across
// disconnected components), so shard sizes never differ by more than one.
// StrategyContiguous slices the id space into p near-equal ranges. Both are
// deterministic.
func Partition(g *graph.Graph, p int, strat Strategy) (*Assignment, error) {
	n := g.N()
	if p < 1 || p > n {
		return nil, fmt.Errorf("shard: cannot cut %d nodes into %d shards", n, p)
	}
	owner := make([]int32, n)
	switch strat {
	case StrategyContiguous:
		for v := 0; v < n; v++ {
			owner[v] = int32(v * p / n)
		}
	case StrategyBFS:
		for v := range owner {
			owner[v] = -1
		}
		next := 0 // lowest unassigned id (monotone scan pointer)
		unassigned := n
		for s := 0; s < p; s++ {
			limit := (unassigned + p - s - 1) / (p - s)
			size := 0
			var queue []int
			claim := func(v int) {
				if owner[v] < 0 && size < limit {
					owner[v] = int32(s)
					size++
					queue = append(queue, v)
				}
			}
			qi := 0
			for size < limit {
				if qi == len(queue) {
					for next < n && owner[next] >= 0 {
						next++
					}
					if next == n {
						break
					}
					claim(next) // re-seed: disconnected component
					continue
				}
				for _, u := range g.Adj.RowIndices(queue[qi]) {
					claim(u)
				}
				qi++
			}
			unassigned -= size
		}
	default:
		return nil, fmt.Errorf("shard: unknown strategy %v", strat)
	}
	asg := &Assignment{P: p, Owner: owner, Owned: make([][]int, p)}
	for v, s := range owner {
		asg.Owned[s] = append(asg.Owned[s], v)
	}
	return asg, nil
}
