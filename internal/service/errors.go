package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// The v1 API reports every failure as one uniform machine-readable
// envelope:
//
//	{"error":{"code":"queue_full","message":"...","details":{"queue_depth":64}}}
//
// Code is a small closed vocabulary clients can switch on; Message is
// human-readable and unstable; Details carries structured context (queue
// depth, retry hints, the offending field). The Go client decodes the
// envelope into *APIError, which errors.Is-matches the sentinel below for
// its code, so callers write
//
//	if errors.Is(err, service.ErrQueueFull) { backoff() }
//
// instead of matching status integers or message substrings. Not every
// reply is an envelope: the HTTP mux answers unknown routes and methods
// itself with text/plain bodies ("404 page not found", "Method Not
// Allowed") — an old client's POST /v1/jobs among them — so the client
// infers the code from the HTTP status whenever the body is not one.

// ErrorCode is a typed, wire-stable API error code.
type ErrorCode string

const (
	// CodeInvalidRequest rejects a malformed or unsatisfiable request
	// (HTTP 400): bad JSON, unknown scheme or mix, mixed request forms,
	// cell counts over the per-sweep bound. A method the route does not
	// serve (the mux's HTTP 405) decodes as this code too.
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeNotFound marks an unknown sweep, spec hash or route (HTTP 404).
	CodeNotFound ErrorCode = "not_found"
	// CodeQueueFull signals back-pressure (HTTP 429): the bounded queue
	// has no free slot. The response carries Retry-After and
	// details.retry_after_seconds; clients should back off and retry.
	CodeQueueFull ErrorCode = "queue_full"
	// CodeDraining rejects submissions during graceful shutdown (HTTP 503).
	CodeDraining ErrorCode = "draining"
	// CodeWorkerGone tells a cluster worker its registration expired
	// (HTTP 410): it was declared dead and must rejoin under a new ID.
	CodeWorkerGone ErrorCode = "worker_gone"
	// CodeInternal is any server-side failure (HTTP 5xx).
	CodeInternal ErrorCode = "internal"
)

// Sentinel errors, one per code, matched by APIError.Is. They carry no
// request context themselves — the client always returns *APIError — but
// give callers stable errors.Is targets.
var (
	ErrInvalidRequest = errors.New("service: invalid request")
	ErrNotFound       = errors.New("service: not found")
	ErrQueueFull      = errors.New("service: queue full")
	ErrDraining       = errors.New("service: draining")
	ErrWorkerGone     = errors.New("service: worker gone")
	ErrInternal       = errors.New("service: internal error")
)

// sentinelFor maps a code onto its errors.Is target.
func sentinelFor(code ErrorCode) error {
	switch code {
	case CodeInvalidRequest:
		return ErrInvalidRequest
	case CodeNotFound:
		return ErrNotFound
	case CodeQueueFull:
		return ErrQueueFull
	case CodeDraining:
		return ErrDraining
	case CodeWorkerGone:
		return ErrWorkerGone
	default:
		return ErrInternal
	}
}

// codeForStatus infers an error code from a bare HTTP status, for replies
// that carry no envelope (the mux's own text/plain 404 and 405 bodies).
func codeForStatus(status int) ErrorCode {
	switch status {
	case http.StatusBadRequest, http.StatusMethodNotAllowed:
		return CodeInvalidRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusTooManyRequests:
		return CodeQueueFull
	case http.StatusServiceUnavailable:
		return CodeDraining
	case http.StatusGone:
		return CodeWorkerGone
	default:
		return CodeInternal
	}
}

// APIError is a failed API call: the wire envelope plus its HTTP status.
// It is both the server's response body (via WriteError) and the client's
// returned error type.
type APIError struct {
	// Status is the HTTP status the error travelled under (not part of
	// the JSON body — the transport already carries it).
	Status int `json:"-"`
	// Code is the typed error code.
	Code ErrorCode `json:"code"`
	// Message is a human-readable description; not for matching.
	Message string `json:"message"`
	// Details carries structured, code-specific context.
	Details map[string]any `json:"details,omitempty"`
	// RetryAfter is the server's Retry-After hint on queue_full replies
	// (zero when absent). Client-side only.
	RetryAfter time.Duration `json:"-"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: HTTP %d %s: %s", e.Status, e.Code, e.Message)
}

// Is matches the sentinel corresponding to e.Code, so
// errors.Is(err, ErrQueueFull) works on any *APIError.
func (e *APIError) Is(target error) bool { return target == sentinelFor(e.Code) }

// errorEnvelope is the wire shape: the error object nested under "error".
type errorEnvelope struct {
	Error *APIError `json:"error"`
}

// WriteError emits the uniform v1 error envelope. Every handler —
// including the cluster endpoints in internal/cluster — reports failures
// through this one function so no ad-hoc error shape can drift back in.
func WriteError(w http.ResponseWriter, status int, code ErrorCode, msg string, details map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{Error: &APIError{
		Status:  status,
		Code:    code,
		Message: msg,
		Details: details,
	}})
}

// writeQueueFull emits the 429 back-pressure reply: a Retry-After header
// (whole seconds, minimum 1) plus the same hint and the current queue
// depth in the envelope details, so both header-aware HTTP clients and
// envelope-only consumers can pace their retries.
func writeQueueFull(w http.ResponseWriter, queueDepth int, retryAfter time.Duration) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteError(w, http.StatusTooManyRequests, CodeQueueFull,
		fmt.Sprintf("queue full (%d sweeps waiting)", queueDepth),
		map[string]any{"queue_depth": queueDepth, "retry_after_seconds": secs})
}

// DecodeAPIError turns a non-2xx reply into *APIError: the v1 envelope
// when the body parses as one, otherwise the text/plain body with the
// code inferred from the status. The fallback is what decodes the mux's
// own replies to unknown routes and methods, so it stays.
func DecodeAPIError(status int, retryAfter string, body []byte) *APIError {
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		e := env.Error
		e.Status = status
		e.RetryAfter = parseRetryAfter(retryAfter)
		return e
	}
	msg := string(body)
	if msg == "" {
		msg = http.StatusText(status)
	}
	return &APIError{
		Status:     status,
		Code:       codeForStatus(status),
		Message:    msg,
		RetryAfter: parseRetryAfter(retryAfter),
	}
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form this server emits); HTTP-date forms and garbage yield zero.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
