package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// NewDeploymentWithState binds a model to a graph whose cached serving
// state — the stationary view, and through its looped degrees the normalized
// adjacency — is supplied by the caller instead of derived from the graph.
// internal/shard uses it to deploy a shard-local subgraph with *global*
// semantics: the view's LoopedDeg are the nodes' global looped degrees, so
// the adjacency operator built over the local pattern emits the global
// normalization's values (boundary rows are truncated at the halo, so degrees
// recomputed locally would be wrong), and the view shares the global weighted
// sum (the rank-1 state is a whole-graph quantity no subgraph can reproduce). The deployment behaves
// exactly like one from NewDeployment — same Infer, same pooled scratch,
// same concurrency contract — but Refresh, ApplyDelta and RefreshIncremental
// must NOT be called on it: they would rebuild the caches from the local
// subgraph and break the global semantics, so they panic on such a
// deployment. The owner of the supplied state (the shard router) repairs it
// after deltas instead.
func NewDeploymentWithState(m *Model, g *graph.Graph, st *Stationary) (*Deployment, error) {
	if g.F() != m.FeatureDim {
		return nil, fmt.Errorf("core: graph feature dim %d != model %d", g.F(), m.FeatureDim)
	}
	if g.NumClasses != m.NumClasses {
		return nil, fmt.Errorf("core: graph classes %d != model %d", g.NumClasses, m.NumClasses)
	}
	if len(st.LoopedDeg) < g.N() {
		return nil, fmt.Errorf("core: stationary view covers %d of %d nodes", len(st.LoopedDeg), g.N())
	}
	d := &Deployment{Model: m, Graph: g, stationary: st, externalState: true,
		Adj: sparse.NewNormalized(g.Adj, m.Gamma, st.LoopedDeg)}
	d.retier()
	return d, nil
}
