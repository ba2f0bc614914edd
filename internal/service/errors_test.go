package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestLegacyEnvelopeCompat checks the text/plain fallback: replies that
// are not a v1 envelope (the HTTP mux's own 404/405 bodies, proxies,
// pre-v1 servers) must still surface as typed *APIError values, with the
// code inferred from the HTTP status.
func TestLegacyEnvelopeCompat(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/sweeps":
			w.Header().Set("Retry-After", "7")
			http.Error(w, "service: queue full (8 sweeps pending)", http.StatusTooManyRequests)
		case "/v1/sweeps/sweep-000001":
			http.Error(w, "service: unknown sweep sweep-000001", http.StatusNotFound)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer hs.Close()
	c := NewClient(hs.URL)
	ctx := context.Background()

	_, err := c.SubmitSweep(ctx, SweepRequest{})
	var se *APIError
	if !errors.As(err, &se) {
		t.Fatalf("text/plain 429: err = %T %v, want *APIError", err, err)
	}
	if !errors.Is(err, ErrQueueFull) || se.Code != CodeQueueFull {
		t.Errorf("text/plain 429 code = %s, want queue_full", se.Code)
	}
	if se.Message != "service: queue full (8 sweeps pending)" {
		t.Errorf("text/plain 429 message = %q, want the raw body", se.Message)
	}
	if se.RetryAfter != 7*time.Second {
		t.Errorf("text/plain 429 Retry-After = %v, want 7s", se.RetryAfter)
	}

	if _, err := c.Sweep(ctx, "sweep-000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("text/plain 404: err = %v, want ErrNotFound", err)
	}
	if _, err := c.Sweep(ctx, "sweep-000002"); !errors.Is(err, ErrInternal) {
		t.Errorf("text/plain 500: err = %v, want ErrInternal", err)
	}
}

// TestJobRoutesGone drives a live server with requests the mux answers
// itself: the removed job routes are not found, and a method a sweep
// route does not serve is the caller's mistake, not a server failure.
func TestJobRoutesGone(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	req := SweepRequest{Mixes: []string{"Q1"}, Schemes: []string{"alloy"}}
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("POST /v1/jobs: err = %v, want ErrNotFound", err)
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/job-000001", nil, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("GET /v1/jobs/job-000001: err = %v, want ErrNotFound", err)
	}
	err := c.do(ctx, http.MethodDelete, "/v1/sweeps/sweep-000001", nil, nil)
	var se *APIError
	if !errors.Is(err, ErrInvalidRequest) || !errors.As(err, &se) || se.Status != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/sweeps/sweep-000001: err = %v, want ErrInvalidRequest with HTTP 405", err)
	}
	if err := c.do(ctx, http.MethodPut, "/v1/sweeps", req, nil); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("PUT /v1/sweeps: err = %v, want ErrInvalidRequest", err)
	}
}

// TestDecodeAPIError covers both wire forms and the status fallback.
func TestDecodeAPIError(t *testing.T) {
	se := DecodeAPIError(429, "3",
		[]byte(`{"error":{"code":"queue_full","message":"full","details":{"queue_depth":4}}}`))
	if se.Code != CodeQueueFull || se.Message != "full" || se.RetryAfter != 3*time.Second {
		t.Errorf("envelope decode = %+v", se)
	}
	if d, ok := se.Details["queue_depth"].(float64); !ok || d != 4 {
		t.Errorf("details = %v, want queue_depth 4", se.Details)
	}
	se = DecodeAPIError(503, "", []byte("service: draining"))
	if se.Code != CodeDraining || !errors.Is(se, ErrDraining) {
		t.Errorf("plain 503 = %+v, want draining", se)
	}
	se = DecodeAPIError(405, "", []byte("Method Not Allowed"))
	if se.Code != CodeInvalidRequest || !errors.Is(se, ErrInvalidRequest) {
		t.Errorf("plain 405 = %+v, want invalid_request", se)
	}
	se = DecodeAPIError(418, "", nil)
	if se.Code != CodeInternal || se.Message == "" {
		t.Errorf("empty unknown-status body = %+v, want internal with synthesized message", se)
	}
}

// TestBackoffDelay checks the growth, cap, hint and jitter bounds.
func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: time.Second}.normalize()
	within := func(n int, hint, lo, hi time.Duration) {
		t.Helper()
		for i := 0; i < 50; i++ {
			if d := b.delay(n, hint); d < lo || d > hi {
				t.Fatalf("delay(%d, %v) = %v, want [%v, %v]", n, hint, d, lo, hi)
			}
		}
	}
	within(0, 0, 75*time.Millisecond, 125*time.Millisecond)
	within(2, 0, 300*time.Millisecond, 500*time.Millisecond)
	// Growth saturates at Cap (±25% jitter), even for shift overflow.
	within(5, 0, 750*time.Millisecond, 1250*time.Millisecond)
	within(200, 0, 750*time.Millisecond, 1250*time.Millisecond)
	// A longer server hint displaces the computed delay.
	within(0, 2*time.Second, 1500*time.Millisecond, 2500*time.Millisecond)
}

// TestSubmitRetry backs off through 429s until the queue drains, honoring
// the server's Retry-After hint, and gives up once attempts run out or
// the context ends.
func TestSubmitRetry(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeQueueFull(w, 3, time.Second)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"sweep-000001","state":"queued"}`))
	}))
	defer hs.Close()
	c := NewClient(hs.URL)
	b := Backoff{Attempts: 4, Base: time.Millisecond, Cap: 2 * time.Millisecond}

	st, err := c.SubmitSweepRetry(context.Background(), SweepRequest{}, b)
	if err != nil || st.ID != "sweep-000001" {
		t.Fatalf("SubmitSweepRetry = %+v, %v; want sweep-000001 after backoff", st, err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d submissions, want 3 (two rejected)", got)
	}

	// Exhaustion surfaces the final queue_full error.
	calls.Store(-100)
	if _, err := c.SubmitSweepRetry(context.Background(), SweepRequest{}, b); !errors.Is(err, ErrQueueFull) {
		t.Errorf("exhausted retry err = %v, want ErrQueueFull", err)
	}
	if got := calls.Load(); got != -96 {
		t.Errorf("server saw %d submissions during exhaustion, want 4", got+100)
	}

	// Context cancellation interrupts the inter-retry sleep.
	calls.Store(-100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SubmitSweepRetry(ctx, SweepRequest{}, Backoff{Attempts: 3, Base: time.Minute}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled retry err = %v, want context.Canceled", err)
	}
}

// TestQueueFullEnvelope asserts the 429 wire format end-to-end: typed
// envelope, Retry-After header, queue depth in the details.
func TestQueueFullEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	writeQueueFull(rec, 5, 3*time.Second)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "3" {
		t.Fatalf("status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	se := DecodeAPIError(rec.Code, rec.Header().Get("Retry-After"), rec.Body.Bytes())
	if !errors.Is(se, ErrQueueFull) || se.RetryAfter != 3*time.Second {
		t.Fatalf("decoded = %+v", se)
	}
	if d, ok := se.Details["queue_depth"].(float64); !ok || d != 5 {
		t.Errorf("details = %v, want queue_depth 5", se.Details)
	}
	if ra, ok := se.Details["retry_after_seconds"].(float64); !ok || ra != 3 {
		t.Errorf("details = %v, want retry_after_seconds 3", se.Details)
	}
}
