package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mat"
)

// The wire types of the JSON API. Every error response is
// {"error": "..."} with the status httpStatus assigns: client mistakes are
// 4xx (400 validation, 413 oversized, 429 overload with Retry-After, 499
// client gone), server conditions are 5xx (500 backend failure, 503
// shutting down, 504 deadline); handlers are method-strict.
//
// Two request headers feed overload control: X-Tenant attributes the call
// to a tenant for quota/fairness accounting, and X-Deadline-Ms asks for a
// per-request deadline (clamped to Config.MaxDeadline; the server's
// DefaultDeadline applies when the header is absent).

// InferRequest asks for predictions on existing node ids.
type InferRequest struct {
	Nodes []int `json:"nodes"`
}

// InferResponse carries per-node predictions and the personalized
// propagation depth each node exited at, aligned with the request order.
type InferResponse struct {
	Preds  []int `json:"preds"`
	Depths []int `json:"depths"`
}

// NodesRequest appends unseen nodes: one feature row per node, one label
// per node (labels may be zero for unlabeled arrivals; they only feed
// offline evaluation). Optional edges connect the new nodes immediately —
// new ids start at the response's FirstID, known to the caller in advance
// as the current /healthz node count.
type NodesRequest struct {
	Features [][]float64 `json:"features"`
	Labels   []int       `json:"labels,omitempty"`
	Edges    [][2]int    `json:"edges,omitempty"`
}

// NodesResponse reports the id range assigned to the appended nodes.
type NodesResponse struct {
	FirstID int `json:"first_id"`
	Count   int `json:"count"`
	Dirty   int `json:"rows_dirtied"`
}

// EdgesRequest appends undirected edges between existing nodes.
type EdgesRequest struct {
	Edges [][2]int `json:"edges"`
}

// EdgesResponse reports how many adjacency rows the edges actually changed
// (duplicates of existing edges and self-loops are dropped).
type EdgesResponse struct {
	Dirty int `json:"rows_dirtied"`
}

// HealthResponse is the /healthz body. With a sharded backend it carries
// one row per worker, and OK means *some* worker is serving: every worker
// answers for every node, so only a fleet with none up turns the probe
// into a 503, while the rows still tell an operator exactly which worker
// to restart. OK, the status code and the rows come from one backend
// snapshot, so they agree.
type HealthResponse struct {
	OK     bool               `json:"ok"`
	Nodes  int                `json:"nodes"`
	Edges  int                `json:"edges"`
	Shards []core.ShardStatus `json:"shards,omitempty"`
}

// Handler returns the daemon's HTTP mux:
//
//	POST /infer        — classify existing nodes (one backend call per request)
//	POST /nodes        — append unseen nodes (+ optional incident edges)
//	POST /edges        — append edges between existing nodes
//	GET  /stats        — JSON view of the /metrics registry: counters, latency percentiles, cache amortization
//	GET  /healthz      — liveness + graph size
//	GET  /metrics      — Prometheus text-format metrics (internal/obs)
//	GET  /debug/traces — recent completed request traces, newest first
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", s.handleInfer)
	mux.HandleFunc("/nodes", s.handleNodes)
	mux.HandleFunc("/edges", s.handleEdges)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.obs.Reg.Handler())
	mux.Handle("/debug/traces", s.obs.Ring.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeStatusError maps err to its HTTP status via httpStatus and writes
// it; 429s carry a Retry-After header (seconds, rounded up, at least 1) so
// well-behaved clients back off instead of hammering a full budget.
func writeStatusError(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	if status == http.StatusTooManyRequests {
		secs := int64(math.Ceil(retryAfter(err).Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeError(w, status, err)
}

// decodePost enforces POST, caps the body at Config.MaxBody (oversized
// payloads get a 413, malformed ones a 400, never an unbounded read or a
// hang), and parses the body into v.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxBytes *http.MaxBytesError
		if errors.As(err, &maxBytes) {
			writeStatusError(w, err) // 413
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return false
	}
	return true
}

// requestContext derives the inference context for one HTTP request: the
// request's own context (client disconnects cancel the wait) tightened by
// the X-Deadline-Ms header when present, clamped to Config.MaxDeadline.
// ok=false means the header was malformed (the 400 has been written).
func (s *Server) requestContext(w http.ResponseWriter, r *http.Request) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	ctx = r.Context()
	h := r.Header.Get("X-Deadline-Ms")
	if h == "" {
		return ctx, func() {}, true
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad X-Deadline-Ms %q: want a positive integer", h))
		return nil, nil, false
	}
	d := time.Duration(ms) * time.Millisecond
	if s.cfg.MaxDeadline > 0 && d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel = context.WithTimeout(ctx, d)
	return ctx, cancel, true
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req InferRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if len(req.Nodes) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty node list"))
		return
	}
	ctx, cancel, ok := s.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	preds, depths, err := s.ClassifyContext(ctx, req.Nodes, r.Header.Get("X-Tenant"))
	if err != nil {
		writeStatusError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, InferResponse{Preds: preds, Depths: depths})
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	var req NodesRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if len(req.Features) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no feature rows"))
		return
	}
	f := len(req.Features[0])
	feats := mat.New(len(req.Features), f)
	for i, row := range req.Features {
		if len(row) != f {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("feature row %d has %d values, row 0 has %d", i, len(row), f))
			return
		}
		copy(feats.Row(i), row)
	}
	labels := req.Labels
	if labels == nil {
		labels = make([]int, len(req.Features))
	}
	d := graph.Delta{Features: feats, Labels: labels}
	for _, e := range req.Edges {
		d.Src = append(d.Src, e[0])
		d.Dst = append(d.Dst, e[1])
	}
	dr, err := s.ApplyDelta(d)
	if err != nil {
		// graph.ValidationError → 400 (the delta was malformed); anything
		// else is an internal failure → 500.
		writeStatusError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, NodesResponse{FirstID: dr.FirstNew, Count: dr.NumNew, Dirty: len(dr.Dirty)})
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	var req EdgesRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty edge list"))
		return
	}
	var d graph.Delta
	for _, e := range req.Edges {
		d.Src = append(d.Src, e[0])
		d.Dst = append(d.Dst, e[1])
	}
	dr, err := s.ApplyDelta(d)
	if err != nil {
		writeStatusError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, EdgesResponse{Dirty: len(dr.Dirty)})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	s.graphMu.RLock()
	adj := s.backend.Adjacency()
	n, m := adj.Rows, adj.NNZ()/2
	s.graphMu.RUnlock()
	info := s.backend.Describe()
	resp := HealthResponse{OK: info.Healthy(), Nodes: n, Edges: m, Shards: info.Shards}
	status := http.StatusOK
	if !resp.OK {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
