// Package shard turns the single-address-space serving engine into a pool
// of interchangeable workers whose answers are bit-identical to one
// core.Deployment over the whole graph.
//
// There is no partition to route by. A T-hop halo around a node set would
// let a worker hold a subgraph, but on the power-law graphs this repo
// serves the radius-2 halo of half the nodes already covers 92–99.7% of the
// rest, so every worker holds a plain core.Deployment over its own copy of
// the whole graph and any worker can answer any request. The pieces:
//
//   - Worker wraps one core.Deployment over a clone of the graph, whose
//     graph version is the worker's, behind a small call surface: Infer, a
//     versioned idempotent ApplyDelta, and Health. A worker process
//     started with the router's model and graph holds bit-identical state
//     with no bulk transfer.
//
//   - Transport is the router↔worker boundary: LocalTransport dispatches
//     to in-process Workers, HTTPTransport speaks a length-checked binary
//     codec (wire.go) to worker processes (WorkerHandler, cmd/naiserve
//     -shard-worker). Errors are classified — transient (retried with
//     backoff), stale version (healed by delta-log replay), permanent — and
//     a pool with no worker left to answer surfaces as ErrUnavailable,
//     which the serving layer maps to 503.
//
//   - Router fronts the workers through a Transport: Infer sends the whole
//     request to the next up worker in round-robin order, fails over to
//     any other, and returns that worker's result as it is. ApplyDelta
//     applies a graph.Delta to the router's graph (which validates it) and
//     appends a copy to one log every worker shares; it calls no worker.
//     Deltas reach workers one way, by replay of that log as versioned
//     ShardDeltas, each applied with core.Deployment.ApplyDelta — so a
//     worker's state equals the unsharded engine's by construction. A
//     worker's next Infer answers stale and is replayed the suffix it
//     misses, then retried; the background health probe and the start-up
//     handshake replay a worker before they re-admit it. A crashed,
//     restarted or partitioned worker rejoins the same way, without
//     restarting the router.
//
// The chosen worker runs the request's own batch over the whole graph at
// the router's version, so predictions, depths and the depth histogram
// equal the unsharded engine's. What the pool buys is concurrency
// across workers and availability — a request fails only when every worker
// is down — not a smaller batch.
//
// Partition, Assignment, Strategy, Router.Sizes and ShardSize remain only
// for the benchmark ladder, which still calls them.
//
// Concurrency contract: like core.Deployment, a Router is read-only during
// Infer — any number of concurrent Infer calls is safe — while ApplyDelta
// mutates the router's graph and must be exclusive. internal/serve
// enforces this with its RWMutex when the Router is the serving Backend.
package shard

import (
	"fmt"

	"repro/internal/graph"
)

// Strategy selects how Partition assigns node ownership. StrategyBFS is the
// only one.
//
// Deprecated: the router does not partition. Only the benchmark ladder
// calls Partition; it goes with ROADMAP item 1(iv).
type Strategy int

// StrategyBFS grows each shard from a seed by breadth-first search under a
// balance cap, keeping shards connected where the graph allows it.
//
// Deprecated: the router does not partition. Only the benchmark ladder
// calls Partition; it goes with ROADMAP item 1(iv).
const StrategyBFS Strategy = 0

// Assignment is a P-way ownership map over a graph's nodes: every node is
// owned by exactly one shard.
//
// Deprecated: the router does not partition. Only the benchmark ladder
// calls Partition; it goes with ROADMAP item 1(iv).
type Assignment struct {
	// P is the number of shards.
	P int
	// Owner[v] is the shard owning node v.
	Owner []int32
	// Owned[p] lists shard p's nodes, sorted ascending.
	Owned [][]int
}

// Partition splits g's nodes into p edge-cut shards. It grows each shard
// from the lowest-id unassigned seed by BFS until it reaches a balance cap
// of ceil(remaining/shards-left) nodes (re-seeding across disconnected
// components), so shard sizes never differ by more than one. It is
// deterministic; strat must be StrategyBFS.
//
// Deprecated: the router does not partition. Only the benchmark ladder
// calls Partition; it goes with ROADMAP item 1(iv).
func Partition(g *graph.Graph, p int, strat Strategy) (*Assignment, error) {
	n := g.N()
	if p < 1 || p > n {
		return nil, fmt.Errorf("shard: cannot cut %d nodes into %d shards", n, p)
	}
	if strat != StrategyBFS {
		return nil, fmt.Errorf("shard: unknown strategy %d", int(strat))
	}
	owner := make([]int32, n)
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
	asg := &Assignment{P: p, Owner: owner, Owned: make([][]int, p)}
	for v, s := range owner {
		asg.Owned[s] = append(asg.Owned[s], v)
	}
	return asg, nil
}
