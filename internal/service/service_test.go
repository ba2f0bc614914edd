package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinyRequest is a fast deterministic sweep: two mixes x two schemes at
// reduced scale.
func tinyRequest() SweepRequest {
	return SweepRequest{
		Mixes:   []string{"Q1", "Q7"},
		Schemes: []string{"alloy", "bimodal"},
		Options: RunOptions{AccessesPerCore: 1500, CacheDivisor: 64},
		Seed:    7,
	}
}

// newTestServer starts a Server over httptest on a random port.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, NewClient(hs.URL)
}

// TestEndToEnd is the acceptance scenario: two identical sweeps submitted
// concurrently plus one invalid scheme; the valid sweeps must return
// byte-identical result JSON and /metrics must report >= 2 completions.
func TestEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	var wg sync.WaitGroup
	ids := make([]string, 2)
	errs := make([]error, 2)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.SubmitSweep(ctx, tinyRequest())
			ids[i], errs[i] = st.ID, err
		}(i)
	}
	// Invalid scheme alongside: must be rejected with HTTP 400 carrying
	// the registry lookup error.
	_, err := c.SubmitSweep(ctx, SweepRequest{Mixes: []string{"Q1"}, Schemes: []string{"no-such-scheme"}})
	var se *APIError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("invalid scheme: err = %v, want APIError 400", err)
	}
	if !errors.Is(err, ErrInvalidRequest) || se.Code != CodeInvalidRequest {
		t.Errorf("invalid scheme should carry code invalid_request, got %q", se.Code)
	}
	if !strings.Contains(se.Message, "unknown scheme") {
		t.Errorf("400 body should carry the lookup error, got %q", se.Message)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if ids[0] == ids[1] {
		t.Fatalf("concurrent submissions share the sweep ID %s", ids[0])
	}

	results := make([][]byte, 2)
	hashes := make([]string, 2)
	for i, id := range ids {
		st := waitCompleted(ctx, t, c, id)
		if st.CellsDone != 4 || st.Cells != 4 {
			t.Errorf("sweep %s cells %d/%d, want 4/4", id, st.CellsDone, st.Cells)
		}
		results[i], hashes[i] = st.Result, st.SweepHash
	}
	if len(results[0]) == 0 {
		t.Fatal("completed sweep carries no result")
	}
	if hashes[0] == "" || hashes[0] != hashes[1] {
		t.Errorf("identical requests hash differently: %q vs %q", hashes[0], hashes[1])
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("identical requests returned different result JSON:\n%s\n---\n%s", results[0], results[1])
	}
	var res SweepResult
	if err := json.Unmarshal(results[0], &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || res.Cells[0].Mix != "Q1" || res.Cells[0].Scheme != "alloy" {
		t.Errorf("unexpected cell layout: %+v", res.Cells)
	}
	for _, cell := range res.Cells {
		if cell.HitRate <= 0 || cell.HitRate > 1 || len(cell.PerCore) != 4 {
			t.Errorf("implausible cell result: %+v", cell)
		}
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, metrics, "bimodal_sweeps_completed_total"); n < 2 {
		t.Errorf("bimodal_sweeps_completed_total = %d, want >= 2", n)
	}
	for _, want := range []string{
		"bimodal_cell_seconds_count",
		"bimodal_queue_depth",
		"bimodal_jobs_inflight",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSSEEvents verifies the events stream: full replay for a late
// subscriber, one cell event per cell, terminal state last.
func TestSSEEvents(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	st, err := c.SubmitSweep(ctx, tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	final, err := c.FollowSweep(ctx, st.ID, func(e Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCompleted {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	var cells int
	for _, e := range events {
		if e.Type == "cell" {
			cells++
		}
	}
	if cells != 4 {
		t.Errorf("cell events = %d, want 4 (%+v)", cells, events)
	}
	if events[0].Type != "state" || events[0].State != StateQueued {
		t.Errorf("first event should be queued state, got %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateCompleted || last.Done != 4 {
		t.Errorf("last event should be completed state with done=4, got %+v", last)
	}

	// A subscriber attaching after completion replays the same history.
	var replay []Event
	if _, err := c.FollowSweep(ctx, st.ID, func(e Event) { replay = append(replay, e) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, events) {
		t.Errorf("late subscriber saw\n%+v\nwant\n%+v", replay, events)
	}
}

// TestValidationErrors exercises the 400 paths.
func TestValidationErrors(t *testing.T) {
	_, c := newTestServer(t, Config{MaxSweepCells: 2})
	ctx := context.Background()
	cases := []struct {
		name string
		req  SweepRequest
		want string
	}{
		{"no mixes", SweepRequest{Schemes: []string{"alloy"}}, "at least one mix"},
		{"no schemes", SweepRequest{Mixes: []string{"Q1"}}, "at least one scheme"},
		{"bad mix", SweepRequest{Mixes: []string{"Z9"}, Schemes: []string{"alloy"}}, "unknown"},
		{"too many cells", SweepRequest{Mixes: []string{"Q1", "Q2", "Q3"}, Schemes: []string{"alloy"}}, "per-sweep limit"},
	}
	for _, tc := range cases {
		_, err := c.SubmitSweep(ctx, tc.req)
		var se *APIError
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want 400", tc.name, err)
			continue
		}
		if !strings.Contains(se.Message, tc.want) {
			t.Errorf("%s: message %q missing %q", tc.name, se.Message, tc.want)
		}
		if tc.name == "too many cells" {
			if n, ok := se.Details["max_sweep_cells"].(float64); !ok || n != 2 {
				t.Errorf("%s: details = %v, want max_sweep_cells 2", tc.name, se.Details)
			}
		}
	}
	if _, err := c.Sweep(ctx, "sweep-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown sweep id: err = %v, want ErrNotFound", err)
	}
}

// TestQueueBoundRejects fills the worker and the one queue slot, then
// expects 429 for the overflow submission.
func TestQueueBoundRejects(t *testing.T) {
	slow := SweepRequest{
		Mixes:   []string{"Q1"},
		Schemes: []string{"alloy"},
		Options: RunOptions{AccessesPerCore: 200_000_000},
	}
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1, SweepFanout: 1})
	ctx := context.Background()
	st1, err := c.SubmitSweep(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked sweep 1 up so the queue slot is truly
	// free.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Sweep(ctx, st1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep 1 never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st2, err := c.SubmitSweep(ctx, slow)
	if err != nil {
		t.Fatalf("second submit should occupy the queue slot: %v", err)
	}
	_, err = c.SubmitSweep(ctx, slow)
	var se *APIError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: err = %v, want 429", err)
	}
	if !errors.Is(err, ErrQueueFull) || se.Code != CodeQueueFull {
		t.Errorf("overflow submit code = %q, want queue_full", se.Code)
	}
	if se.RetryAfter <= 0 {
		t.Errorf("429 should carry Retry-After, got %v", se.RetryAfter)
	}
	if d, ok := se.Details["queue_depth"]; !ok {
		t.Errorf("429 details missing queue_depth: %v", se.Details)
	} else if n, ok := d.(float64); !ok || n != 1 {
		t.Errorf("queue_depth = %v, want 1", d)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, metrics, "bimodal_jobs_rejected_total"); n != 1 {
		t.Errorf("bimodal_jobs_rejected_total = %d, want 1", n)
	}

	// Forced shutdown cancels the in-flight and queued sweeps promptly.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("forced shutdown err = %v", err)
	}
	for _, id := range []string{st1.ID, st2.ID} {
		st, err := c.Sweep(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCanceled {
			t.Errorf("sweep %s after forced shutdown: state = %s, want canceled", id, st.State)
		}
	}
}

// TestGracefulDrain lets running and queued work finish, then rejects new
// sweeps with 503.
func TestGracefulDrain(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	req := tinyRequest()
	req.Mixes = []string{"Q1"}
	req.Schemes = []string{"alloy"}
	var ids []string
	for seed := uint64(7); seed <= 8; seed++ {
		req.Seed = seed
		st, err := c.SubmitSweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		got, err := c.Sweep(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateCompleted {
			t.Errorf("drained sweep %s state = %s (%s), want completed", id, got.State, got.Error)
		}
	}
	_, err := c.SubmitSweep(ctx, req)
	if !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}
	var se *APIError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Errorf("submit after drain: err = %v, want 503", err)
	}
}

// TestListJobs checks the sweep listing returns submission order without
// results or per-cell hashes.
func TestListJobs(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	req := SweepRequest{Mixes: []string{"Q1"}, Schemes: []string{"alloy"}, Options: RunOptions{AccessesPerCore: 1000, CacheDivisor: 64}}
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := c.SubmitSweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	list, err := c.Sweeps(ctx, ListQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 3 {
		t.Fatalf("listed %d sweeps, want 3", len(list.Sweeps))
	}
	if list.NextCursor != "" {
		t.Errorf("next_cursor = %q for an exhausted listing", list.NextCursor)
	}
	for i, st := range list.Sweeps {
		if st.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s", i, st.ID, ids[i])
		}
		if st.Result != nil || st.SpecHashes != nil {
			t.Error("list should omit results and spec hashes")
		}
	}
}

// TestANTTCell checks the ANTT option flows through to cell results.
func TestANTTCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cores+1 simulations per cell")
	}
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	st, err := c.SubmitSweep(ctx, SweepRequest{
		Mixes:   []string{"Q1"},
		Schemes: []string{"alloy"},
		Options: RunOptions{AccessesPerCore: 1000, CacheDivisor: 64, ANTT: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitCompleted(ctx, t, c, st.ID)
	var res SweepResult
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].ANTT <= 0 {
		t.Errorf("ANTT = %v, want > 0", res.Cells[0].ANTT)
	}
}
