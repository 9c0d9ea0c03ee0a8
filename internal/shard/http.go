package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// The worker wire protocol: three endpoints carrying the binary codec of
// wire.go over plain HTTP POST/GET bodies (HTTP buys connection reuse,
// deadlines and status codes; the payloads never touch JSON).
//
//	POST /shard/infer  — msgInfer body   → 200 msgResult | 409 msgError (stale)
//	POST /shard/delta  — msgDelta body   → 200 msgAck    | 409 msgError (stale)
//	GET  /shard/health —                 → 200 msgHealth
//
// Malformed payloads are 400, internal failures 500 (both with a plain-text
// body); a version conflict is 409 with a msgError carrying the worker's
// current version, which HTTPTransport turns back into the *StaleError the
// router's replay path keys on.

// workerMaxBody caps a worker request body. Deltas carry feature rows for
// appended nodes, so the cap is roomy; it exists so a confused or hostile
// peer cannot make a worker buffer an unbounded body.
const workerMaxBody = 256 << 20

// WorkerHandler serves one Worker over the shard wire protocol without
// observability — WorkerHandlerObs with a nil Obs.
func WorkerHandler(w *Worker) http.Handler {
	return WorkerHandlerObs(w, nil)
}

// WorkerHandlerObs serves one Worker over the shard wire protocol; mount it
// as the root handler of a worker process (cmd/naiserve -shard-worker
// does). A non-nil o gives the worker its own observability surface: every
// /shard/infer call records engine spans into a worker-side trace started
// under the router's trace id (shipped back with the result so the router
// stitches the two halves), the worker's registry is served at GET /metrics
// and its trace ring at GET /debug/traces, and worker-state gauges
// (graph size, graph version, worker label) are registered on o.Reg — so
// call WorkerHandlerObs once per Obs.
func WorkerHandlerObs(w *Worker, o *obs.Obs) http.Handler {
	// refuseDraining rejects new RPCs on a worker that has started its
	// graceful drain: 503 is a transient error to the transport, so the
	// router routes around it while in-flight requests — already past this
	// check — finish.
	refuseDraining := func(rw http.ResponseWriter) bool {
		if !w.Draining() {
			return false
		}
		http.Error(rw, "worker draining", http.StatusServiceUnavailable)
		return true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/infer", func(rw http.ResponseWriter, r *http.Request) {
		if refuseDraining(rw) {
			return
		}
		body, ok := readWireBody(rw, r)
		if !ok {
			return
		}
		req, err := decodeInferRequest(body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		tr := o.StartTraceID(req.TraceID) // nil o → nil trace, all no-ops
		res, err := w.InferContext(obs.ContextWithTrace(r.Context(), tr), req)
		if err != nil {
			o.FinishTrace(tr, "", "error", len(req.Targets))
			writeWorkerError(rw, err)
			return
		}
		// Copy the spans before FinishTrace recycles the trace into the
		// ring's free list (Spans aliases the trace's internal array).
		spans := append([]obs.Span(nil), tr.Spans()...)
		o.FinishTrace(tr, "", "ok", len(req.Targets))
		writeWire(rw, encodeResult(res, spans))
	})
	mux.HandleFunc("/shard/delta", func(rw http.ResponseWriter, r *http.Request) {
		if refuseDraining(rw) {
			return
		}
		body, ok := readWireBody(rw, r)
		if !ok {
			return
		}
		sd, err := decodeShardDelta(body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if err := w.ApplyDelta(sd); err != nil {
			writeWorkerError(rw, err)
			return
		}
		writeWire(rw, encodeAck())
	})
	mux.HandleFunc("/shard/health", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(rw, "use GET", http.StatusMethodNotAllowed)
			return
		}
		// A draining worker reports unhealthy so probes take it out of
		// rotation before its process exits.
		if refuseDraining(rw) {
			return
		}
		writeWire(rw, encodeHealthInfo(w.Health()))
	})
	if o != nil {
		o.Reg.GaugeFunc("nai_graph_nodes",
			"Worker graph node count.",
			func() float64 { return float64(w.Health().Nodes) })
		o.Reg.GaugeFunc("nai_graph_version",
			"Worker graph version (1 = bootstrapped, +1 per applied delta).",
			func() float64 { return float64(w.Health().Version) })
		o.Reg.GaugeFunc("nai_shard_id",
			"This worker's label (naiserve -shard-worker); the router does not read it.",
			func() float64 { return float64(w.id) })
		core.RegisterHop1Metrics(o.Reg, w.dep.Hop1Stats)
		mux.Handle("/metrics", o.Reg.Handler())
		mux.Handle("/debug/traces", o.Ring.Handler())
	}
	return mux
}

func readWireBody(rw http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		http.Error(rw, "use POST", http.StatusMethodNotAllowed)
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, workerMaxBody))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

func writeWire(rw http.ResponseWriter, b []byte) {
	rw.Header().Set("Content-Type", "application/octet-stream")
	_, _ = rw.Write(b)
}

// writeWorkerError maps a worker-side failure onto the wire: stale versions
// are 409 with a structured msgError (the router heals them), deltas that
// fail graph validation (rejected before anything mutates) are 400,
// anything else is a 500. HTTPTransport reads a 400 as a permanent call
// failure and a 500 as a transient one; either takes the worker down.
func writeWorkerError(rw http.ResponseWriter, err error) {
	var stale *StaleError
	if errors.As(err, &stale) {
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.WriteHeader(http.StatusConflict)
		_, _ = rw.Write(encodeWireError(errKindStale, stale.Have, stale.Want, err.Error()))
		return
	}
	var prec *precisionError
	if errors.As(err, &prec) {
		// Also a conflict, but one replay cannot heal: the payload's kind
		// tells the router to fail the call permanently instead.
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.WriteHeader(http.StatusConflict)
		_, _ = rw.Write(encodeWireError(errKindPrecision,
			uint64(prec.have), uint64(prec.want), err.Error()))
		return
	}
	var val *graph.ValidationError
	if errors.As(err, &val) {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	http.Error(rw, err.Error(), http.StatusInternalServerError)
}

// HTTPTransport reaches shard workers over the wire protocol: one base URL
// per worker (index = worker index; the router labels its status rows with
// them), one shared http.Client with keep-alive
// connection reuse. Per-call deadlines come from the caller's context (the
// serving layer's PR 6 deadline plumbing flows through unchanged); calls
// whose context carries no deadline get CallTimeout so a dead worker always
// turns into a timely transient error, never a hang.
//
// Error mapping: connect/timeout failures and 5xx/429 statuses become
// transient TransportErrors (the router retries with backoff), 409 becomes
// the *StaleError the router's replay path heals, anything else is a
// permanent TransportError.
type HTTPTransport struct {
	urls        []string
	client      *http.Client
	callTimeout time.Duration
}

// HTTPTransportConfig parametrizes NewHTTPTransport.
type HTTPTransportConfig struct {
	// CallTimeout bounds calls whose context has no deadline of its own
	// (≤0 defaults to 30s).
	CallTimeout time.Duration
}

// NewHTTPTransport dials one worker per address (index = worker index).
// Addresses may be bare "host:port" (http:// is assumed) or full URLs.
func NewHTTPTransport(addrs []string, cfg HTTPTransportConfig) *HTTPTransport {
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 30 * time.Second
	}
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		urls[i] = strings.TrimRight(a, "/")
	}
	return &HTTPTransport{
		urls: urls,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
		callTimeout: cfg.CallTimeout,
	}
}

func (t *HTTPTransport) url(shardID int) (string, error) {
	if shardID < 0 || shardID >= len(t.urls) {
		return "", &TransportError{Shard: shardID, Err: fmt.Errorf("no such worker (have %d)", len(t.urls))}
	}
	return t.urls[shardID], nil
}

// call runs one wire round trip and returns the 200 response body; every
// failure is already classified (transient TransportError, StaleError, or
// permanent TransportError).
func (t *HTTPTransport) call(ctx context.Context, shardID int, method, path string, body []byte) ([]byte, error) {
	base, err := t.url(shardID)
	if err != nil {
		return nil, err
	}
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.callTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, &TransportError{Shard: shardID, Err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		// Every transport-level failure — refused connection, reset, DNS,
		// context deadline — is worth a retry against a worker that may be
		// restarting. Context errors stay visible through Unwrap.
		return nil, &TransportError{Shard: shardID, Transient: true, Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, workerMaxBody))
	if err != nil {
		return nil, &TransportError{Shard: shardID, Transient: true, Err: err}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return data, nil
	case resp.StatusCode == http.StatusConflict:
		we, derr := decodeWireError(data)
		switch {
		case derr != nil:
			return nil, &TransportError{Shard: shardID, Err: fmt.Errorf("bad 409 payload: %v", derr)}
		case we.kind == errKindPrecision:
			// A tier conflict is permanent: no retry or replay fixes a worker
			// bootstrapped at a different precision.
			return nil, &TransportError{Shard: shardID,
				Err: &precisionError{shard: shardID,
					have: kernel.Precision(we.have), want: kernel.Precision(we.want)}}
		case we.kind != errKindStale:
			return nil, &TransportError{Shard: shardID,
				Err: fmt.Errorf("unexpected 409 error kind %d: %s", we.kind, we.msg)}
		}
		return nil, &StaleError{Shard: shardID, Have: we.have, Want: we.want}
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		// A proxy 502/503 or an overloaded worker may clear on retry.
		return nil, &TransportError{Shard: shardID, Transient: true,
			Err: fmt.Errorf("worker status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))}
	default:
		return nil, &TransportError{Shard: shardID,
			Err: fmt.Errorf("worker status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))}
	}
}

// Infer runs one request's batch on the remote worker. A trace riding ctx
// gets encode/rpc/decode spans tagged with the worker index, its id travels
// in the request so the worker records under the same id, and the
// worker-side spans shipped back with the result are spliced into the
// trace marked Worker (their offsets are the worker clock's — the two
// clocks are not synchronized).
func (t *HTTPTransport) Infer(ctx context.Context, shardID int, req *InferRequest) (*core.Result, error) {
	tr := obs.FromContext(ctx)
	req.TraceID = tr.ID()
	encAt := tr.Begin()
	body := encodeInferRequest(req)
	tr.End(obs.StageEncode, 0, shardID, encAt)
	rpcAt := tr.Begin()
	data, err := t.call(ctx, shardID, http.MethodPost, "/shard/infer", body)
	tr.End(obs.StageRPC, 0, shardID, rpcAt)
	if err != nil {
		return nil, err
	}
	decAt := tr.Begin()
	res, spans, err := decodeResult(data)
	tr.End(obs.StageDecode, 0, shardID, decAt)
	if err != nil {
		return nil, &TransportError{Shard: shardID, Err: err}
	}
	for _, sp := range spans {
		sp.Worker = true
		sp.Shard = int16(shardID)
		tr.Add(sp)
	}
	return res, nil
}

// ApplyDelta ships one versioned delta to the remote worker.
func (t *HTTPTransport) ApplyDelta(ctx context.Context, shardID int, sd *ShardDelta) error {
	data, err := t.call(ctx, shardID, http.MethodPost, "/shard/delta", encodeShardDelta(sd))
	if err != nil {
		return err
	}
	if err := decodeAck(data); err != nil {
		return &TransportError{Shard: shardID, Err: err}
	}
	return nil
}

// Health probes the remote worker.
func (t *HTTPTransport) Health(ctx context.Context, shardID int) (HealthInfo, error) {
	data, err := t.call(ctx, shardID, http.MethodGet, "/shard/health", nil)
	if err != nil {
		return HealthInfo{}, err
	}
	h, err := decodeHealthInfo(data)
	if err != nil {
		return HealthInfo{}, &TransportError{Shard: shardID, Err: err}
	}
	return h, nil
}

// Close drops the transport's idle keep-alive connections.
func (t *HTTPTransport) Close() error {
	t.client.CloseIdleConnections()
	return nil
}
