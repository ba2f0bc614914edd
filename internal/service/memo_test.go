package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"bimodal/internal/spec"
)

// metricValue parses one counter/gauge/histogram-count line out of the
// Prometheus exposition text.
func metricValue(t *testing.T, metrics, name string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("metrics missing %s:\n%s", name, metrics)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// waitCompleted waits for a sweep and fails the test unless it completed.
func waitCompleted(ctx context.Context, t *testing.T, c *Client, id string) SweepStatus {
	t.Helper()
	st, err := c.FollowSweep(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCompleted {
		t.Fatalf("sweep %s ended %s: %s", id, st.State, st.Error)
	}
	return st
}

// TestMemoizedResubmission is the memoization acceptance test: submitting
// the exact same request twice must answer every cell of the second sweep
// from the result store — identical result bytes, store hits equal to the
// cell count, and no second simulation (the per-cell histogram count must
// not move).
func TestMemoizedResubmission(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	req := tinyRequest()
	st1, err := c.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st1.SweepHash == "" {
		t.Fatal("submit status carries no sweep hash")
	}
	st1 = waitCompleted(ctx, t, c, st1.ID)
	if st1.StoreHits != 0 {
		t.Fatalf("first sweep store hits = %d, want 0", st1.StoreHits)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cellsBefore := metricValue(t, metrics, "bimodal_cell_seconds_count")
	if hits := metricValue(t, metrics, "bimodal_sweep_store_hits_total"); hits != 0 {
		t.Fatalf("store hits before resubmission = %d", hits)
	}
	if misses := metricValue(t, metrics, "bimodal_sweep_store_misses_total"); misses != 4 {
		t.Fatalf("store misses = %d, want 4", misses)
	}

	// The second submission completes when a worker dequeues it, with
	// every cell read back from the store.
	st2, err := c.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st1.ID {
		t.Fatal("resubmission reused the sweep id")
	}
	if st2.SweepHash != st1.SweepHash {
		t.Fatalf("sweep hash changed across identical submissions: %s vs %s", st1.SweepHash, st2.SweepHash)
	}
	st2 = waitCompleted(ctx, t, c, st2.ID)
	if st2.StoreHits != st2.Cells || st2.CellsDone != st2.Cells || st2.Cells != 4 {
		t.Fatalf("resubmission answered %d/%d cells from store (%d done), want 4/4",
			st2.StoreHits, st2.Cells, st2.CellsDone)
	}
	if !bytes.Equal(st2.Result, st1.Result) {
		t.Error("store-served result bytes differ from the original run")
	}

	metrics, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits := metricValue(t, metrics, "bimodal_sweep_store_hits_total"); hits != 4 {
		t.Errorf("store hits = %d, want 4", hits)
	}
	if cellsAfter := metricValue(t, metrics, "bimodal_cell_seconds_count"); cellsAfter != cellsBefore {
		t.Errorf("cell count moved %d -> %d: the resubmission re-simulated", cellsBefore, cellsAfter)
	}
	if completed := metricValue(t, metrics, "bimodal_sweeps_completed_total"); completed != 2 {
		t.Errorf("completed sweeps = %d, want 2 (store-served sweeps count as completions)", completed)
	}

	// A different seed is a different simulation: it must miss.
	req.Seed = 8
	st3, err := c.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st3.SweepHash == st1.SweepHash {
		t.Error("different seed shares a sweep hash")
	}
	if st3 = waitCompleted(ctx, t, c, st3.ID); st3.StoreHits != 0 {
		t.Errorf("different seed answered %d cells from store, want 0", st3.StoreHits)
	}
}

// TestMemoizationJoinsEquivalentRequests checks the store keys on the
// canonical form: a request spelled with aliases and explicit defaults
// shares the sweep hash of its canonically-spelled twin and is answered
// from the cells that twin stored.
func TestMemoizationJoinsEquivalentRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	req := SweepRequest{
		Mixes:   []string{"Q1"},
		Schemes: []string{"alloy"},
		Options: RunOptions{AccessesPerCore: 1500, CacheDivisor: 64},
		Seed:    7,
	}
	st1, err := c.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st1 = waitCompleted(ctx, t, c, st1.ID)
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cellsBefore := metricValue(t, metrics, "bimodal_cell_seconds_count")

	st2, err := c.SubmitSweep(ctx, SweepRequest{
		Mixes:   []string{"Q1"},
		Schemes: []string{"alloycache"}, // alias of alloy
		Options: RunOptions{AccessesPerCore: 1500, WarmupPerCore: 1500, CacheDivisor: 64},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.SweepHash != st1.SweepHash {
		t.Errorf("equivalent request hashes differently: %s vs %s", st2.SweepHash, st1.SweepHash)
	}
	st2 = waitCompleted(ctx, t, c, st2.ID)
	if st2.StoreHits != 1 || st2.Cells != 1 {
		t.Errorf("equivalent request answered %d/%d cells from store, want 1/1", st2.StoreHits, st2.Cells)
	}
	if !bytes.Equal(st2.Result, st1.Result) {
		t.Error("equivalent request returned different result bytes")
	}
	metrics, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cellsAfter := metricValue(t, metrics, "bimodal_cell_seconds_count"); cellsAfter != cellsBefore {
		t.Errorf("cell count moved %d -> %d: the equivalent request re-simulated", cellsBefore, cellsAfter)
	}

	// A different seed is a different simulation: it must miss.
	req.Seed = 8
	st3, err := c.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st3.SweepHash == st1.SweepHash {
		t.Error("different seed shares a sweep hash")
	}
	if st3 = waitCompleted(ctx, t, c, st3.ID); st3.StoreHits != 0 {
		t.Errorf("different seed answered %d cells from store, want 0", st3.StoreHits)
	}
}

// TestSpecFormSubmission submits the spec request form and checks the
// echoed request is canonical: aliases resolved, the sweep seed folded
// into each spec, params validated.
func TestSpecFormSubmission(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	req := SweepRequest{
		Specs: []spec.RunSpec{
			{Scheme: "cometa", Mix: "Q1", Options: RunOptions{AccessesPerCore: 1500, CacheDivisor: 64}},
			{Scheme: "bimodal", Mix: "Q1", Params: spec.Params{"fixed_big": 1},
				Options: RunOptions{AccessesPerCore: 1500, CacheDivisor: 64}},
		},
		Seed: 7,
	}
	st, err := c.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 2 {
		t.Fatalf("cells = %d, want 2", st.Cells)
	}
	st = waitCompleted(ctx, t, c, st.ID)
	var res SweepResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	echo := res.Request
	if len(echo.Specs) != 2 || echo.Seed != 0 {
		t.Fatalf("echoed request not in canonical spec form: %+v", echo)
	}
	if echo.Specs[0].Scheme != "bimodal-cometa" {
		t.Errorf("alias not canonicalized in echo: %q", echo.Specs[0].Scheme)
	}
	for i, rs := range echo.Specs {
		if rs.Seed != 7 {
			t.Errorf("spec %d seed = %d, want the folded sweep seed 7", i, rs.Seed)
		}
	}
	if res.Cells[0].Scheme != "bimodal-cometa" || res.Cells[1].Scheme != "bimodal" {
		t.Errorf("cell schemes = %q, %q", res.Cells[0].Scheme, res.Cells[1].Scheme)
	}
}

func TestSpecFormValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cases := []struct {
		req  SweepRequest
		want string
	}{
		{SweepRequest{Specs: []spec.RunSpec{{Scheme: "bimodal", Mix: "Q1"}}, Mixes: []string{"Q1"}},
			"mutually exclusive"},
		{SweepRequest{Specs: []spec.RunSpec{{Scheme: "bimodal", Mix: "Q1"}},
			Options: RunOptions{AccessesPerCore: 100}},
			"options must be empty"},
		{SweepRequest{Specs: []spec.RunSpec{{Scheme: "alloy", Mix: "Q1",
			Params: spec.Params{"way_locator_k": 12}}}},
			"takes no parameters"},
		{SweepRequest{Specs: []spec.RunSpec{{Scheme: "bogus", Mix: "Q1"}}},
			"unknown scheme"},
		{SweepRequest{Specs: []spec.RunSpec{{Scheme: "bimodal", Mix: "Q7",
			Params: spec.Params{"set_bytes": 16384, "big_block": 128, "min_big": 1, "threshold": 2}}}},
			"more than 32"},
	}
	for _, tc := range cases {
		_, err := c.SubmitSweep(ctx, tc.req)
		var se *APIError
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
			t.Errorf("%+v: got %v, want 400", tc.req, err)
			continue
		}
		if !strings.Contains(se.Message, tc.want) {
			t.Errorf("%+v: error %q does not mention %q", tc.req, se.Message, tc.want)
		}
	}
}

// TestETagRevalidation checks a completed sweep's GET carries the sweep
// hash as a strong ETag and honours If-None-Match with 304.
func TestETagRevalidation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	st, err := c.SubmitSweep(ctx, SweepRequest{
		Mixes:   []string{"Q1"},
		Schemes: []string{"alloy"},
		Options: RunOptions{AccessesPerCore: 1500, CacheDivisor: 64},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st = waitCompleted(ctx, t, c, st.ID)

	url := c.base + "/v1/sweeps/" + st.ID
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if want := `"` + st.SweepHash + `"`; etag != want {
		t.Fatalf("ETag = %q, want %q", etag, want)
	}

	for _, header := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		req.Header.Set("If-None-Match", header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", header, resp.StatusCode)
		}
	}

	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", `"sha256:feedface"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("non-matching If-None-Match: status %d, want 200", resp.StatusCode)
	}
}
