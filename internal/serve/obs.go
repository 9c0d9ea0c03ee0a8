package serve

// Gauge wiring for the /metrics surface: scrape-time functions reading
// the server's live state. Graph-shape reads take the serving read lock
// (graphMu), so a scrape can never race a delta's exclusive section;
// admission, detector, cache and backend-snapshot reads use those
// components' own locks.

import (
	"strconv"

	"repro/internal/cache"
	"repro/internal/core"
)

// registerGauges installs the server-level gauges on the obs registry.
// Called once from NewBackend, after the budget and detector exist.
func (s *Server) registerGauges() {
	reg := s.obs.Reg

	reg.GaugeFunc("nai_pending_targets",
		"Targets admitted into backend calls and not yet answered.",
		func() float64 { return float64(s.budget.Pending()) })
	reg.GaugeFunc("nai_max_pending",
		"Admission budget capacity in targets (0 = unbounded).",
		func() float64 { return float64(s.budget.Capacity()) })
	reg.GaugeFunc("nai_degraded",
		"Overload detector state (1 = degraded). Read via Peek: scrapes never mutate detector state.",
		func() float64 { return b2f(s.detector.Peek(s.budget.Pending(), s.budget.Capacity())) })
	reg.GaugeFunc("nai_degraded_transitions_total",
		"Degraded-state flips since start.",
		func() float64 { return float64(s.detector.Transitions()) })

	reg.GaugeFunc("nai_graph_nodes",
		"Serving graph node count (after deltas).",
		func() float64 {
			s.graphMu.RLock()
			defer s.graphMu.RUnlock()
			return float64(s.backend.Adjacency().Rows)
		})
	reg.GaugeFunc("nai_graph_edges",
		"Serving graph edge count (after deltas).",
		func() float64 {
			s.graphMu.RLock()
			defer s.graphMu.RUnlock()
			return float64(s.backend.Adjacency().NNZ() / 2)
		})
	reg.GaugeFunc("nai_graph_version",
		"Backend graph version (+1 per effective delta).",
		func() float64 { return float64(s.backend.Describe().Version) })

	// The layers live in the engine; Describe sums them over the backend's
	// engines. A front over remote workers reads their counters as of the last
	// health probe (HealthInfo.Hop1), and each worker also reports its own on
	// its /metrics (shard.WorkerHandlerObs).
	core.RegisterHop1Metrics(reg, func() core.Hop1Stats { return s.backend.Describe().Hop1 })

	if s.cache != nil {
		cacheGauge := func(name, help string, read func(cache.Stats) float64) {
			reg.GaugeFunc(name, help, func() float64 { return read(s.cache.Stats()) })
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

	// The fleet series exist only for a backend that has a fleet (the worker
	// count is fixed at construction). Each family reads one Describe
	// snapshot per scrape, so its rows describe one instant.
	if len(s.backend.Describe().Shards) == 0 {
		return
	}
	perWorker := func(name, help string, read func(core.Info, core.ShardStatus) float64) {
		reg.GaugeVec(name, help, "shard").CollectFunc(func(emit func(float64, ...string)) {
			info := s.backend.Describe()
			for _, st := range info.Shards {
				emit(read(info, st), strconv.Itoa(st.Shard))
			}
		})
	}
	perWorker("nai_shard_up", "Per-worker health (1 = up, 0 = lagging or down) from the router's probes.",
		func(_ core.Info, st core.ShardStatus) float64 { return b2f(st.Up) })
	perWorker("nai_shard_version_lag",
		"Graph versions a worker is known to be behind the router (0 = caught up).",
		func(info core.Info, st core.ShardStatus) float64 { return float64(info.Version) - float64(st.Version) })
	reg.GaugeFunc("nai_shard_failovers_total",
		"Times inference failed over away from a worker (cumulative).",
		func() float64 { return float64(s.backend.Describe().Failovers) })
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
