package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/graph"
	"repro/internal/shard"
)

// The daemon's overload-control error taxonomy. Every rejection path in
// ClassifyContext returns one of these sentinels (possibly wrapped with
// detail), and the HTTP layer maps them to status codes via httpStatus —
// so the Go API and the wire API agree on what each failure means.
var (
	// ErrOverloaded: the admission budget (targets in backend calls) is
	// full, or the tenant is over its fair share of it. HTTP 429 with a
	// Retry-After hint; rejecting costs microseconds, never an Infer.
	ErrOverloaded = errors.New("overloaded: admission budget full")
	// ErrQuota: the tenant's token-bucket rate quota is exhausted.
	// HTTP 429 with the bucket's refill time as Retry-After.
	ErrQuota = errors.New("tenant quota exceeded")
	// ErrShed: the overload detector is tripped and the request would need
	// an expensive un-cached NAP inference — shed until pressure recedes
	// (cache hits and ModeFixed answers keep being served). HTTP 429.
	ErrShed = errors.New("degraded mode: expensive request shed")
	// ErrShuttingDown: the server has been closed; requests already in
	// backend calls finish but new work is refused. HTTP 503.
	ErrShuttingDown = errors.New("server shutting down")
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// for a request whose client went away before its backend call; there is
// rarely anyone left to read it, but logs and stats keep the distinction
// from a server-imposed deadline (504).
const StatusClientClosedRequest = 499

// retryableError carries a Retry-After hint alongside an overload
// sentinel, so the HTTP layer can tell clients when to come back.
type retryableError struct {
	err   error
	retry time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// badRequestError marks a request-level validation failure (unknown node
// id, malformed body): the client's fault, HTTP 400.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequestf(format string, args ...any) error {
	return &badRequestError{err: fmt.Errorf(format, args...)}
}

// httpStatus maps a Classify/ApplyDelta error to its HTTP status: overload
// rejections are 429, shutdown 503, deadline expiry 504, client
// cancellation 499, oversized bodies 413, validation failures 400, and
// anything else — a backend failure the client did not cause — 500.
func httpStatus(err error) int {
	var maxBytes *http.MaxBytesError
	var badReq *badRequestError
	var validation *graph.ValidationError
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQuota), errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown), errors.Is(err, shard.ErrUnavailable):
		// A sharded backend with no reachable worker (retries exhausted) is
		// a temporary server condition, like shutdown: the request may
		// succeed once a worker rejoins.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.As(err, &maxBytes):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &badReq), errors.As(err, &validation):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// retryAfter extracts the Retry-After hint from an overload rejection
// (0 = none attached; the handler then uses a 1s default).
func retryAfter(err error) time.Duration {
	var r *retryableError
	if errors.As(err, &r) {
		return r.retry
	}
	return 0
}
