package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client is the thin typed client for the sweep server, shared by
// cmd/bmsubmit and the end-to-end tests so every consumer speaks the same
// structs the server does. Failed calls return *APIError, which matches
// the code sentinels (ErrQueueFull, ErrNotFound, ...) under errors.Is;
// replies that are not a v1 envelope — the HTTP mux's own text/plain 404
// and 405 bodies among them — decode too, with the code inferred from the
// HTTP status.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a server base URL ("http://host:port"). The underlying
// http.Client has no global timeout — SSE streams are long-lived — so
// bound individual calls with their contexts.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// do issues the request and decodes a JSON reply into out (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return readAPIError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// readAPIError drains a non-2xx response into *APIError.
func readAPIError(resp *http.Response) *APIError {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	return DecodeAPIError(resp.StatusCode, resp.Header.Get("Retry-After"),
		bytes.TrimSpace(msg))
}

// SubmitSweep enqueues a sweep and returns its initial status.
func (c *Client) SubmitSweep(ctx context.Context, req SweepRequest) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &st)
	return st, err
}

// Backoff paces retries of back-pressured (queue_full) submissions:
// capped exponential delays with jitter, preferring the server's
// Retry-After hint when it is longer than the computed delay.
type Backoff struct {
	// Attempts caps total tries (including the first). 0 selects 6.
	Attempts int
	// Base is the first retry delay, doubled per retry. 0 selects 200ms.
	Base time.Duration
	// Cap bounds the delay growth. 0 selects 10s.
	Cap time.Duration
}

func (b Backoff) normalize() Backoff {
	if b.Attempts <= 0 {
		b.Attempts = 6
	}
	if b.Base <= 0 {
		b.Base = 200 * time.Millisecond
	}
	if b.Cap <= 0 {
		b.Cap = 10 * time.Second
	}
	return b
}

// delay computes the pause before retry n (0-based): capped exponential
// growth from Base, stretched to the server hint when that is longer,
// with ±25% jitter so a fleet of backed-off clients does not re-stampede
// the queue in lockstep.
func (b Backoff) delay(n int, hint time.Duration) time.Duration {
	d := b.Base << n
	if d > b.Cap || d <= 0 {
		d = b.Cap
	}
	if hint > d {
		d = hint
	}
	q := d / 4
	if q > 0 {
		d += time.Duration(rand.Int63n(2*int64(q))) - q
	}
	return d
}

// SubmitSweepRetry submits a sweep, backing off and retrying while the
// server reports queue_full (HTTP 429 with Retry-After). Any other error —
// and exhaustion — returns the last error unchanged.
func (c *Client) SubmitSweepRetry(ctx context.Context, req SweepRequest, b Backoff) (SweepStatus, error) {
	b = b.normalize()
	var st SweepStatus
	var err error
	for n := 0; n < b.Attempts; n++ {
		if st, err = c.SubmitSweep(ctx, req); !errors.Is(err, ErrQueueFull) {
			return st, err
		}
		if n == b.Attempts-1 {
			break
		}
		var hint time.Duration
		var ae *APIError
		if errors.As(err, &ae) {
			hint = ae.RetryAfter
		}
		t := time.NewTimer(b.delay(n, hint))
		select {
		case <-ctx.Done():
			t.Stop()
			return st, ctx.Err()
		case <-t.C:
		}
	}
	return st, err
}

// Sweep fetches one sweep's status (merged result once completed).
func (c *Client) Sweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// ListQuery selects a listing page: Limit entries (server default 100,
// cap 1000) starting after Cursor (the last ID of the previous page, as
// returned in SweepList.NextCursor), optionally filtered by State.
type ListQuery struct {
	Limit  int
	Cursor string
	State  State
}

// query renders the pagination parameters.
func (q ListQuery) query() string {
	v := url.Values{}
	if q.Limit > 0 {
		v.Set("limit", fmt.Sprint(q.Limit))
	}
	if q.Cursor != "" {
		v.Set("cursor", q.Cursor)
	}
	if q.State != "" {
		v.Set("state", string(q.State))
	}
	if len(v) == 0 {
		return ""
	}
	return "?" + v.Encode()
}

// Sweeps lists one page of sweep statuses (without results).
func (c *Client) Sweeps(ctx context.Context, q ListQuery) (SweepList, error) {
	var out SweepList
	err := c.do(ctx, http.MethodGet, "/v1/sweeps"+q.query(), nil, &out)
	return out, err
}

// Spec fetches the canonical spec JSON registered under a content hash.
func (c *Client) Spec(ctx context.Context, hash string) (json.RawMessage, error) {
	var raw json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/specs/"+url.PathEscape(hash), nil, &raw)
	return raw, err
}

// SpecResult fetches one cell's result bytes from the server's
// content-addressed store (ErrNotFound when the cell never ran against
// this store).
func (c *Client) SpecResult(ctx context.Context, hash string) (json.RawMessage, error) {
	var raw json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/specs/"+url.PathEscape(hash)+"/result", nil, &raw)
	return raw, err
}

// FollowSweep consumes the sweep's SSE stream (merged progress across
// store hits and dispatched cells), invoking fn per event, then returns
// the final status. The stream ends when the sweep reaches a terminal
// state; fn may be nil to just block until then.
func (c *Client) FollowSweep(ctx context.Context, id string, fn func(Event)) (SweepStatus, error) {
	if err := c.follow(ctx, "/v1/sweeps/"+id+"/events", fn); err != nil {
		return SweepStatus{}, err
	}
	return c.Sweep(ctx, id)
}

// follow drains one SSE stream to its end.
func (c *Client) follow(ctx context.Context, path string, fn func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return readAPIError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // blank separators and comments
		}
		var e Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &e); err != nil {
			return fmt.Errorf("service: decoding event: %w", err)
		}
		if fn != nil {
			fn(e)
		}
	}
	return sc.Err()
}

// Metrics fetches the Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", readAPIError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
