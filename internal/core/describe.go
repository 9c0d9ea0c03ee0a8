package core

import (
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// Info is what a serving backend reports about itself, as plain data: one
// call returns one consistent snapshot, and the daemon's /healthz, /stats
// and /metrics gauges are all read off it. A bare Deployment fills the
// first four fields; a shard router adds the fleet's. The fleet's row type
// lives here, below internal/shard, because both backends return an Info
// and this package cannot import that one.
type Info struct {
	// Version is the monotone graph version: 1 as deployed, +1 per
	// effective delta.
	Version uint64
	// Precision is the arithmetic tier served at.
	Precision kernel.Precision
	// ScratchBytes is the retained pooled-scratch footprint of one
	// in-flight batch (summed over every shard worker, as of its last
	// probe).
	ScratchBytes int
	// Hop1 counts the engine layers' traffic, summed over every layer (and
	// every shard worker, as of its last probe).
	Hop1 Hop1Stats
	// Shards is per-worker health, by worker index; nil for a bare
	// deployment.
	Shards []ShardStatus
	// Failovers counts the times inference moved on from a failed worker to
	// another, the attempts beyond each round's first; it stays zero while
	// every call succeeds on the first worker it tries.
	Failovers uint64
}

// Healthy reports whether the snapshot can serve: true while any worker is
// up, because every worker answers for every node (and true for a bare
// deployment, which has none to lose).
func (i Info) Healthy() bool {
	for _, st := range i.Shards {
		if st.Up {
			return true
		}
	}
	return len(i.Shards) == 0
}

// ShardStatus is one worker's health in an Info (and, through it, in the
// serving layer's /healthz and /stats).
type ShardStatus struct {
	// Shard is the worker's index in the router's pool.
	Shard int `json:"shard"`
	// Addr labels the worker's endpoint (empty for in-process workers).
	Addr string `json:"addr,omitempty"`
	// Up reports whether the worker takes requests.
	Up bool `json:"up"`
	// State is "up", "lagging" or "down".
	State string `json:"state"`
	// Version is the graph version the worker is known to hold: what its
	// last call, probe or replay established (1 before any).
	Version uint64 `json:"version"`
	// Err is the failure that took the worker out of rotation (empty while
	// up).
	Err string `json:"err,omitempty"`
}

// Version reports the deployment's monotone graph version: it starts at 1
// (NewDeployment's initial Refresh) and grows with every Refresh and every
// effective ApplyDelta. An answer computed under one version is valid
// exactly as long as that version is current; the serving daemon surfaces
// it in /stats.
func (d *Deployment) Version() uint64 { return d.version.Load() }

// Describe snapshots the deployment for the serving layer (serve.Backend).
func (d *Deployment) Describe() Info {
	return Info{Version: d.Version(), Precision: d.prec,
		ScratchBytes: d.ScratchBytes(), Hop1: d.Hop1Stats()}
}

// Adjacency returns the served graph's adjacency (serve.Backend): the
// daemon reads its size, validates ids against it and walks it for cache
// eviction, under the lock that excludes ApplyDelta.
func (d *Deployment) Adjacency() *sparse.CSR { return d.Graph.Adj }
