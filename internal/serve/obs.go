package serve

// Gauge wiring for the /metrics surface: scrape-time functions reading
// the server's live state. Graph-shape and cache reads take the serving
// read lock (graphMu), so a scrape can never race a delta's exclusive
// section; admission and detector reads use those components' own locks.

import (
	"strconv"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/shard"
)

// registerGauges installs the server-level gauges on the obs registry.
// Called once from NewBackend, after the coalescer exists.
func (s *Server) registerGauges() {
	reg := s.obs.Reg

	reg.GaugeFunc("nai_pending_targets",
		"Targets queued in the coalescing window or in flight in a flush.",
		func() float64 { return float64(s.co.budget.Pending()) })
	reg.GaugeFunc("nai_max_pending",
		"Admission budget capacity in targets (0 = unbounded).",
		func() float64 { return float64(s.co.budget.Capacity()) })
	reg.GaugeFunc("nai_degraded",
		"Overload detector state (1 = degraded). Read via Peek: scrapes never mutate detector state.",
		func() float64 {
			if s.co.detector.Peek(s.co.budget.Pending(), s.co.budget.Capacity()) {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("nai_degraded_transitions_total",
		"Degraded-state flips since start.",
		func() float64 { return float64(s.co.detector.Transitions()) })

	reg.GaugeFunc("nai_graph_nodes",
		"Serving graph node count (after deltas).",
		func() float64 {
			s.co.graphMu.RLock()
			defer s.co.graphMu.RUnlock()
			return float64(s.backend.NumNodes())
		})
	reg.GaugeFunc("nai_graph_edges",
		"Serving graph edge count (after deltas).",
		func() float64 {
			s.co.graphMu.RLock()
			defer s.co.graphMu.RUnlock()
			return float64(s.backend.NumEdges())
		})
	reg.GaugeFunc("nai_graph_version",
		"Backend graph version (+1 per effective delta).",
		func() float64 {
			s.co.graphMu.RLock()
			defer s.co.graphMu.RUnlock()
			return float64(s.backend.Version())
		})

	// The hop-1 memo lives in the engine, so its counters are this process's:
	// a sharded front over remote workers reads zero here and each worker
	// reports its own on its /metrics (shard.WorkerHandlerObs).
	if hr, ok := s.backend.(interface{ Hop1Stats() core.Hop1Stats }); ok {
		core.RegisterHop1Metrics(reg, hr.Hop1Stats)
	}

	if s.cached {
		cacheGauge := func(name, help string, read func(cache.Stats) float64) {
			reg.GaugeFunc(name, help, func() float64 {
				s.co.graphMu.RLock()
				cs, ok := s.backend.CacheStats()
				s.co.graphMu.RUnlock()
				if !ok {
					return 0
				}
				return read(cs)
			})
		}
		cacheGauge("nai_cache_hits", "Result cache hits.",
			func(c cache.Stats) float64 { return float64(c.Hits) })
		cacheGauge("nai_cache_misses", "Result cache misses.",
			func(c cache.Stats) float64 { return float64(c.Misses) })
		cacheGauge("nai_cache_entries", "Live result cache entries.",
			func(c cache.Stats) float64 { return float64(c.Entries) })
		cacheGauge("nai_cache_hit_rate", "Result cache hit rate.",
			func(c cache.Stats) float64 { return c.HitRate })
	}

	if hr, ok := s.backend.(ShardHealthReporter); ok {
		up := reg.GaugeVec("nai_shard_up",
			"Per-shard health (1 = serving) from the router's probes.", "shard")
		vers := reg.GaugeVec("nai_shard_version",
			"Per-shard graph version at the last successful probe.", "shard")
		health := hr.ShardHealth()
		for i := range health {
			p := i
			up.WithFunc(func() float64 {
				if st := hr.ShardHealth(); p < len(st) && st[p].Up {
					return 1
				}
				return 0
			}, strconv.Itoa(p))
			vers.WithFunc(func() float64 {
				if st := hr.ShardHealth(); p < len(st) {
					return float64(st[p].Version)
				}
				return 0
			}, strconv.Itoa(p))
		}
		// Replica series only exist when the backend routes over a replica
		// set. Replica counts are fixed at construction, so enumerating the
		// label space once at registration is safe.
		if replicated(health) {
			rup := reg.GaugeVec("nai_shard_replica_up",
				"Per-replica health (1 = up, 0 = lagging or down) from the router's probes.",
				"shard", "replica")
			for i := range health {
				p := i
				for j := range health[p].Replicas {
					r := j
					rup.WithFunc(func() float64 {
						st := hr.ShardHealth()
						if p < len(st) && r < len(st[p].Replicas) && st[p].Replicas[r].State == "up" {
							return 1
						}
						return 0
					}, strconv.Itoa(p), strconv.Itoa(r))
				}
			}
		}
	}

	if fr, ok := s.backend.(FailoverReporter); ok {
		reg.GaugeFunc("nai_shard_failovers_total",
			"Times inference failed over away from a replica (cumulative).",
			func() float64 { f, _ := fr.FailoverCounters(); return float64(f) })
		reg.GaugeFunc("nai_shard_replica_retries_total",
			"Extra per-replica inference attempts beyond the first (cumulative).",
			func() float64 { _, r := fr.FailoverCounters(); return float64(r) })
	}
}

// replicated reports whether any shard's status carries replica detail —
// i.e. the backend routes over a ReplicaSet rather than a flat transport.
func replicated(health []shard.ShardStatus) bool {
	for _, st := range health {
		if len(st.Replicas) > 0 {
			return true
		}
	}
	return false
}
