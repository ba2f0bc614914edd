package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"bimodal/internal/spec"
	"bimodal/internal/store"
)

// tinySweep is a fast deterministic 2x2 sweep.
func tinySweep() SweepRequest {
	return SweepRequest{
		Mixes:   []string{"Q1", "Q7"},
		Schemes: []string{"alloy", "bimodal"},
		Options: RunOptions{AccessesPerCore: 1200, CacheDivisor: 64},
		Seed:    5,
	}
}

// sweepResultView decodes the merged sweep result without re-marshaling
// the per-cell bytes.
type sweepResultView struct {
	Request SweepRequest      `json:"request"`
	Cells   []json.RawMessage `json:"cells"`
}

// lenCounter counts the Len calls on the store it wraps.
type lenCounter struct {
	store.Store
	lens atomic.Int32
}

func (s *lenCounter) Len() (int, error) {
	s.lens.Add(1)
	return s.Store.Len()
}

// TestSweepEndToEnd runs a sweep locally, then resweeps and asserts the
// second pass is answered entirely by the content-addressed store with
// byte-identical merged results. The store-entries gauge costs one Len
// for the sweep that simulated and none for the store-served resweep.
func TestSweepEndToEnd(t *testing.T) {
	counted := &lenCounter{Store: store.NewMem()}
	_, c := newTestServer(t, Config{Workers: 1, Store: counted})
	ctx := context.Background()

	st, err := c.SubmitSweep(ctx, tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 4 || st.SweepHash == "" {
		t.Fatalf("submit status = %+v, want 4 cells and a sweep hash", st)
	}
	fin, err := c.FollowSweep(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCompleted || fin.CellsDone != 4 {
		t.Fatalf("sweep %s: state %s (%s), %d/%d cells", st.ID, fin.State, fin.Error, fin.CellsDone, fin.Cells)
	}
	if fin.StoreHits != 0 {
		t.Errorf("first sweep store hits = %d, want 0", fin.StoreHits)
	}
	if len(fin.SpecHashes) != 4 {
		t.Fatalf("spec hashes = %d, want 4", len(fin.SpecHashes))
	}
	var view sweepResultView
	if err := json.Unmarshal(fin.Result, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Cells) != 4 {
		t.Fatalf("merged result has %d cells, want 4", len(view.Cells))
	}
	if view.Request.Seed != 5 || len(view.Request.Mixes) != 2 {
		t.Errorf("request echo not canonical: %+v", view.Request)
	}
	if got := counted.lens.Load(); got != 1 {
		t.Errorf("store Len calls after a 4-cell sweep = %d, want 1", got)
	}

	// Identical resweep: every cell must be store-served, zero
	// re-simulations, merged bytes identical.
	st2, err := c.SubmitSweep(ctx, tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatalf("resweep reused the sweep ID %s", st2.ID)
	}
	fin2, err := c.FollowSweep(ctx, st2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin2.State != StateCompleted || fin2.StoreHits != 4 {
		t.Fatalf("resweep: state %s, store hits %d/%d, want completed 4/4", fin2.State, fin2.StoreHits, fin2.Cells)
	}
	if !bytes.Equal(fin.Result, fin2.Result) {
		t.Errorf("resweep result bytes differ:\n%s\n---\n%s", fin.Result, fin2.Result)
	}
	if got := counted.lens.Load(); got != 1 {
		t.Errorf("store Len calls after a store-served resweep = %d, want still 1", got)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bimodal_sweep_store_hits_total 4",
		"bimodal_sweep_store_misses_total 4",
		"bimodal_sweeps_completed_total 2",
		// The store holds the 4 cell results and nothing else. The two
		// Alloy cells are on different mixes, so no two misses share a
		// warm prefix: nothing is sealed and no warmup is counted.
		"bimodal_store_entries 4",
		"bimodal_snapshot_misses_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSweepSpecEndpoints checks the content-addressed spec surface: the
// canonical echo, the per-cell result fetch, ETag revalidation and 404s.
func TestSweepSpecEndpoints(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	req := SweepRequest{
		Specs: []spec.RunSpec{{Scheme: "cometa", Mix: "Q1",
			Options: RunOptions{AccessesPerCore: 1000, CacheDivisor: 64}}},
		Seed: 3,
	}
	st, err := c.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.FollowSweep(ctx, st.ID, nil)
	if err != nil || fin.State != StateCompleted {
		t.Fatalf("sweep: %v, state %+v", err, fin)
	}
	hash := fin.SpecHashes[0]

	// Canonical spec echo: aliases resolved, defaults explicit.
	raw, err := c.Spec(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}
	var rs spec.RunSpec
	if err := json.Unmarshal(raw, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Scheme != "bimodal-cometa" || rs.Seed != 3 || rs.Options.AccessesPerCore != 1000 {
		t.Errorf("spec echo not canonical: %s", raw)
	}
	if h, err := rs.Hash(); err != nil || h != hash {
		t.Errorf("echoed spec hashes to %s (%v), want %s", h, err, hash)
	}

	// Result fetch: the stored cell bytes, revalidatable by hash.
	blob, err := c.SpecResult(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}
	var view sweepResultView
	if err := json.Unmarshal(fin.Result, &view); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, view.Cells[0]) {
		t.Errorf("spec result bytes differ from merged cell:\n%s\n---\n%s", blob, view.Cells[0])
	}
	hr, err := http.NewRequest(http.MethodGet, c.base+"/v1/specs/"+hash+"/result", nil)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("If-None-Match", `"`+hash+`"`)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match fetch = %d, want 304", resp.StatusCode)
	}

	// Unknown hashes 404 with the typed envelope.
	bogus := spec.HashBytes([]byte("no such spec"))
	if _, err := c.Spec(ctx, bogus); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown spec: err = %v, want ErrNotFound", err)
	}
	if _, err := c.SpecResult(ctx, bogus); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown spec result: err = %v, want ErrNotFound", err)
	}
}

// TestSweepValidation exercises the 400 envelope on malformed sweeps.
func TestSweepValidation(t *testing.T) {
	_, c := newTestServer(t, Config{MaxSweepCells: 2})
	ctx := context.Background()
	cases := []struct {
		name string
		req  SweepRequest
		want string
	}{
		{"mixed forms", SweepRequest{Specs: []spec.RunSpec{{Scheme: "bimodal", Mix: "Q1"}},
			Mixes: []string{"Q1"}}, "mutually exclusive"},
		{"no schemes", SweepRequest{Mixes: []string{"Q1"}}, "at least one scheme"},
		{"too many cells", SweepRequest{Mixes: []string{"Q1", "Q2", "Q3"},
			Schemes: []string{"alloy"}}, "per-sweep limit"},
	}
	for _, tc := range cases {
		_, err := c.SubmitSweep(ctx, tc.req)
		var se *APIError
		if !errors.As(err, &se) || !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: err = %v, want invalid_request", tc.name, err)
			continue
		}
		if !strings.Contains(se.Message, tc.want) {
			t.Errorf("%s: message %q missing %q", tc.name, se.Message, tc.want)
		}
	}
	if _, err := c.Sweep(ctx, "sweep-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown sweep: err = %v, want ErrNotFound", err)
	}
}

// TestSweepSSE follows the merged progress stream and checks per-cell
// origins: all "run" on the first pass, all "store" on the resweep.
func TestSweepSSE(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	if got := sweepOrigins(t, c, tinySweep()); got["run"] != 4 || got["store"] != 0 {
		t.Errorf("first sweep origins = %v, want 4 run", got)
	}
	if got := sweepOrigins(t, c, tinySweep()); got["store"] != 4 || got["run"] != 0 {
		t.Errorf("resweep origins = %v, want 4 store", got)
	}
}

// TestListPagination pages through the sweep listing with limits,
// cursors and a state filter.
func TestListPagination(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	req := SweepRequest{Mixes: []string{"Q1"}, Schemes: []string{"alloy"},
		Options: RunOptions{AccessesPerCore: 800, CacheDivisor: 64}}
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := c.SubmitSweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		if _, err := c.FollowSweep(ctx, st.ID, nil); err != nil {
			t.Fatal(err)
		}
	}

	var paged []string
	q := ListQuery{Limit: 2}
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatal("pagination did not terminate")
		}
		list, err := c.Sweeps(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range list.Sweeps {
			paged = append(paged, st.ID)
		}
		if list.NextCursor == "" {
			break
		}
		if len(list.Sweeps) != 2 {
			t.Fatalf("non-terminal page holds %d sweeps, want 2", len(list.Sweeps))
		}
		if list.NextCursor != list.Sweeps[len(list.Sweeps)-1].ID {
			t.Fatalf("next_cursor = %q, want last page ID %q", list.NextCursor, list.Sweeps[1].ID)
		}
		q.Cursor = list.NextCursor
	}
	if len(paged) != 5 {
		t.Fatalf("paged %d sweeps, want 5: %v", len(paged), paged)
	}
	for i, id := range paged {
		if id != ids[i] {
			t.Errorf("paged[%d] = %s, want %s (stable submission order)", i, id, ids[i])
		}
	}

	// State filter: all sweeps completed, so filtering on queued is empty.
	list, err := c.Sweeps(ctx, ListQuery{State: StateCompleted})
	if err != nil || len(list.Sweeps) != 5 {
		t.Errorf("state=completed listed %d sweeps (%v), want 5", len(list.Sweeps), err)
	}
	list, err = c.Sweeps(ctx, ListQuery{State: StateQueued})
	if err != nil || len(list.Sweeps) != 0 {
		t.Errorf("state=queued listed %d sweeps (%v), want 0", len(list.Sweeps), err)
	}

	// Malformed parameters produce the typed envelope.
	if _, err := c.Sweeps(ctx, ListQuery{Cursor: "sweep-424242"}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("unknown cursor: err = %v, want ErrInvalidRequest", err)
	}
	resp, err := http.Get(c.base + "/v1/sweeps?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error *APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != CodeInvalidRequest {
		t.Errorf("bad state filter: %d %+v, want 400 invalid_request envelope", resp.StatusCode, env.Error)
	}
}
