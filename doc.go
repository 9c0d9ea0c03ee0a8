// Package repro is a from-scratch Go reproduction of "Accelerating
// Scalable Graph Neural Network Inference with Node-Adaptive Propagation"
// (ICDE 2024). See ARCHITECTURE.md for the end-to-end serving-stack
// architecture (layering, the life of a request, the concurrency and
// memory contracts), examples/README.md for runnable walkthroughs, and
// ROADMAP.md for the system's direction.
//
// Serving runs on a concurrent, zero-recompute engine (internal/core):
// a Deployment is read-only after construction — the normalized adjacency
// and the stationary state X(∞) are cached once (refreshable via
// Deployment.Refresh) — and all per-request state lives in pooled scratch,
// so Infer is safe for concurrent callers. Supporting sets for all hops of a
// batch come from one multi-source BFS, re-derived only after early-exit
// waves. Each batch then propagates in compacted coordinates: every hop is a
// product with the normalized-adjacency operator itself
// (sparse.MulNormalizedRowsInto — no row of Â is ever stored), and every
// hop, gate decision and classification runs on |S|×f matrices over the
// batch's supporting ball S, so the scratch one in-flight batch retains is
// O((TMax−h)·|S|·f) with S the radius-(TMax−h−1) ball — hops 1..h are a layer
// the deployment keeps on every graph (X^(h), h = max(1, TMax−2), and h = 1 at
// the int8 tier: one more block of the feature matrix's shape per operating
// depth served, filled on first use and read in place) — and per-batch memory
// follows the supporting set, not the serving graph: any number of
// concurrent callers can share a very large graph. Propagation uses
// parallel, nnz-balanced sparse kernels (internal/sparse, internal/par). Reported MACs still follow the paper's
// per-batch accounting (Algorithm 1 recomputes X(∞) per batch), so measured
// wall-clock and memory improve while MAC tables stay comparable.
//
// On top of the engine sits a long-lived serving daemon (internal/serve,
// cmd/naiserve): an HTTP JSON front-end that answers each request with one
// Infer call — a multi-node request shares Algorithm 1's per-batch BFS/GEMM
// work across its targets, and a result cache absorbs repeat reads — and
// absorbs online graph growth through POST /nodes and /edges deltas, whose incremental refresh
// (Deployment.ApplyDelta) touches only changed rows yet stays bit-identical
// to a full Refresh. Performance is measured by benchmark/ (BENCHMARK.json:
// four closed-loop workloads, end-to-end metrics with A/A bounds, a
// per-layer ladder); a claim is a set of paired runs against the parent
// commit.
//
// The root package only anchors the module; all functionality lives in
// internal/... packages, the cmd/... binaries and the runnable examples.
package repro
