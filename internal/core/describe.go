package core

import (
	"repro/internal/graph"
	"repro/internal/kernel"
)

// Info is what a serving backend reports about itself, as plain data: one
// call returns one consistent snapshot, and the daemon's /healthz, /stats
// and /metrics gauges are all read off it. A bare Deployment fills the
// first four fields; a shard router adds the fleet's. The fleet types live
// here, below internal/shard, because both backends return an Info and this
// package cannot import that one.
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
	// Shards is per-shard health, by shard id; nil for a bare deployment.
	Shards []ShardStatus
	// Failovers counts the times inference moved on from a failed replica
	// to a peer and ReplicaRetries the per-replica attempts beyond each
	// round's first; both stay zero while every shard has one replica.
	Failovers, ReplicaRetries uint64
}

// Healthy reports whether every shard in the snapshot is serving (true for
// a bare deployment, which has none to lose).
func (i Info) Healthy() bool {
	for _, st := range i.Shards {
		if !st.Up {
			return false
		}
	}
	return true
}

// ShardStatus is one shard's health in an Info (and, through it, in the
// serving layer's /healthz and /stats). A shard is a group of R ≥ 1 worker
// replicas and everything here derives from theirs.
type ShardStatus struct {
	// Shard is the shard id.
	Shard int `json:"shard"`
	// Up reports whether at least one replica is serving.
	Up bool `json:"up"`
	// Version and Nodes are the most caught-up serving replica's graph
	// version and, as of its last probe, local subgraph size.
	Version uint64 `json:"version"`
	Nodes   int    `json:"nodes"`
	// Err is the last failure in the group (empty while up).
	Err string `json:"err,omitempty"`
	// Replicas is the shard's health per worker; a one-worker shard lists
	// that one.
	Replicas []ReplicaStatus `json:"replicas,omitempty"`
}

// ReplicaStatus is one replica's health in a shard's status block.
type ReplicaStatus struct {
	// Replica is the replica's index within its shard's group.
	Replica int `json:"replica"`
	// Addr labels the replica's endpoint (empty for in-process workers).
	Addr string `json:"addr,omitempty"`
	// State is "up", "lagging" or "down".
	State string `json:"state"`
	// Version is the graph version the replica is known to hold: what its
	// last probe, delivery or replay established (1 before any).
	Version uint64 `json:"version"`
	// Err is the failure that took the replica out of rotation (empty while up).
	Err string `json:"err,omitempty"`
}

// Version reports the deployment's monotone graph version: it starts at 1
// (NewDeployment's initial Refresh) and grows with every Refresh and every
// effective ApplyDelta. An answer computed under one version is valid
// exactly as long as that version is current; the serving daemon surfaces
// it in /stats. Deployments with externally supplied state (shard
// subgraphs) stay at 0 — their router versions the global graph instead.
func (d *Deployment) Version() uint64 { return d.version.Load() }

// Describe snapshots the deployment for the serving layer (serve.Backend).
func (d *Deployment) Describe() Info {
	return Info{Version: d.Version(), Precision: d.prec,
		ScratchBytes: d.ScratchBytes(), Hop1: d.Hop1Stats()}
}

// ServingGraph returns the graph being served (serve.Backend): the daemon
// reads its size, validates ids against it and walks it for cache
// eviction, under the lock that excludes ApplyDelta.
func (d *Deployment) ServingGraph() *graph.Graph { return d.Graph }
