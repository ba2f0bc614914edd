package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"bimodal/internal/spec"
)

// samePrefixSweep builds a 10-cell sweep whose cells differ only in
// measured length: every cell shares one warmup prefix, so the warm
// runner must execute the warmup phase exactly once.
func samePrefixSweep(t *testing.T) SweepRequest {
	t.Helper()
	var specs []spec.RunSpec
	for i := 1; i <= 10; i++ {
		specs = append(specs, spec.RunSpec{
			Scheme: "alloy",
			Mix:    "Q1",
			Options: spec.Options{
				AccessesPerCore: int64(100 * i),
				WarmupPerCore:   600,
				CacheDivisor:    64,
			},
			Seed: 5,
		})
	}
	req := SweepRequest{Specs: specs}
	first, _, err := specs[0].PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range specs[1:] {
		h, ok, err := rs.PrefixHash()
		if err != nil || !ok || h != first {
			t.Fatalf("fixture broken: prefixes differ (%v, ok=%v)", err, ok)
		}
	}
	return req
}

// TestSweepWarmupRunsOnce is the subsystem's headline contract: a
// same-prefix sweep warms up once (one snapshot miss), serves every other
// cell from the snapshot (origin "warm"), and still produces exactly the
// bytes a cold run would — proven by resweeping against the store and by
// a cold server.
func TestSweepWarmupRunsOnce(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, SweepFanout: 4})
	ctx := context.Background()

	st, err := c.SubmitSweep(ctx, samePrefixSweep(t))
	if err != nil {
		t.Fatal(err)
	}
	var warm, run int
	fin, err := c.FollowSweep(ctx, st.ID, func(e Event) {
		switch e.Origin {
		case "warm":
			warm++
		case "run":
			run++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCompleted {
		t.Fatalf("sweep state %s: %s", fin.State, fin.Error)
	}
	if run != 1 || warm != 9 {
		t.Errorf("origins: %d run + %d warm, want 1 + 9", run, warm)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "bimodal_snapshot_misses_total"); got != 1 {
		t.Errorf("snapshot misses = %d, want 1 (warmup must run exactly once)", got)
	}
	if got := metricValue(t, metrics, "bimodal_snapshot_hits_total"); got != 9 {
		t.Errorf("snapshot hits = %d, want 9", got)
	}
	if !strings.Contains(metrics, "bimodal_snapshot_bytes_total") {
		t.Error("metrics missing bimodal_snapshot_bytes_total")
	}

	// Byte-identity against a cold server: run one of the warm-served
	// cells straight through and compare the stored cell bytes.
	req := samePrefixSweep(t)
	rs, err := req.Specs[7].Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := rs.Hash()
	if err != nil {
		t.Fatal(err)
	}
	stored, err := c.SpecResult(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunCellSpec(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	if string(stored) != string(cold) {
		t.Errorf("warm cell bytes differ from cold run:\nwarm: %s\ncold: %s", stored, cold)
	}
}

// sweepOrigins submits req, follows it to completion and counts its cell
// events by origin.
func sweepOrigins(t *testing.T, c *Client, req SweepRequest) map[string]int {
	t.Helper()
	ctx := context.Background()
	st, err := c.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	origins := map[string]int{}
	fin, err := c.FollowSweep(ctx, st.ID, func(e Event) {
		if e.Type == "cell" {
			origins[e.Origin]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCompleted {
		t.Fatalf("sweep state %s: %s", fin.State, fin.Error)
	}
	return origins
}

// checkSealedNothing asserts that the server's sweeps so far moved no
// snapshot counter, that its store holds nothing but the given number of
// cell results, and that none of the given prefix hashes has an entry
// there.
func checkSealedNothing(t *testing.T, s *Server, c *Client, cells int, prefixes ...string) {
	t.Helper()
	metrics, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bimodal_snapshot_hits_total", "bimodal_snapshot_misses_total", "bimodal_snapshot_bytes_total"} {
		if got := metricValue(t, metrics, name); got != 0 {
			t.Errorf("%s = %d, want 0 (nothing to share, so nothing sealed)", name, got)
		}
	}
	if got := metricValue(t, metrics, "bimodal_store_entries"); got != cells {
		t.Errorf("bimodal_store_entries = %d, want %d (cell results only)", got, cells)
	}
	for _, prefix := range prefixes {
		if _, found, err := s.Store().Get(prefix); err != nil || found {
			t.Errorf("prefix %s has a store entry (found=%v, err=%v)", prefix, found, err)
		}
	}
}

// TestWarmRunnerFallsBackOnCorruptSnapshot plans a three-cell group, lets
// its producer seal the warm state, then corrupts the blob: the other two
// cells must warm up themselves and return the cold bytes, each counting
// a snapshot miss, never a hit.
func TestWarmRunnerFallsBackOnCorruptSnapshot(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	ctx := context.Background()
	req := samePrefixSweep(t)
	req.Specs = req.Specs[:3]
	req, _, err := req.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := req.cells(0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planWarm(cells, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	g := plan[0]
	if g == nil || g.producer != 0 || plan[1] != g || plan[2] != g {
		t.Fatalf("plan = %v, want one group of cells 0-2 produced by cell 0", plan)
	}

	check := func(i int, raw []byte, warm bool, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if warm {
			t.Errorf("cell %d reported a warm restore", i)
		}
		cold, err := RunCellSpec(ctx, cells[i].rs)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(cold) {
			t.Errorf("cell %d bytes differ from a cold run:\ngot:  %s\ncold: %s", i, raw, cold)
		}
	}
	raw, warm, err := s.runWarm(ctx, cells[0], 0, g)
	check(0, raw, warm, err)
	if len(g.blob) == 0 || s.mSnapBytes.Value() != int64(len(g.blob)) {
		t.Fatalf("producer sealed %d bytes, counted %d", len(g.blob), s.mSnapBytes.Value())
	}
	bad := append([]byte(nil), g.blob...)
	bad[len(bad)/2] ^= 0xff
	g.blob = bad
	for i := 1; i < 3; i++ {
		raw, warm, err := s.runWarm(ctx, cells[i], i, g)
		check(i, raw, warm, err)
	}
	if got := s.mSnapHits.Value(); got != 0 {
		t.Errorf("snapshot hits = %d, want 0 (no restore replaced a warmup)", got)
	}
	if got := s.mSnapMisses.Value(); got != 3 {
		t.Errorf("snapshot misses = %d, want 3 (the producer and two fallbacks)", got)
	}
}

// TestWarmRunnerSharesANTTPrefix pins that ANTT does not shape warmup:
// two ANTT cells differing only in measured length form one warm group,
// and so do an ANTT cell and its non-ANTT twin. In each sweep the member
// restores the producer's blob, and every cell's bytes, the antt field
// included, equal a cold RunCellSpec of its spec.
func TestWarmRunnerSharesANTTPrefix(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, SweepFanout: 2})
	cell := func(n int64, antt bool) spec.RunSpec {
		rs, err := spec.RunSpec{Scheme: "alloy", Mix: "Q1", Seed: 2,
			Options: spec.Options{AccessesPerCore: n, WarmupPerCore: 300, CacheDivisor: 64, ANTT: antt}}.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	for _, specs := range [][]spec.RunSpec{
		{cell(300, true), cell(400, true)},
		{cell(500, true), cell(500, false)},
	} {
		if got := sweepOrigins(t, c, SweepRequest{Specs: specs}); got["run"] != 1 || got["warm"] != 1 {
			t.Errorf("origins = %v, want 1 run + 1 warm", got)
		}
		for i, raw := range checkColdBytes(t, c, specs) {
			if got := strings.Contains(string(raw), `"antt":`); got != specs[i].Options.ANTT {
				t.Errorf("cell %d: antt field present = %v, want %v", i, got, specs[i].Options.ANTT)
			}
		}
	}
}

// checkColdBytes checks that the server stored, for every spec, the bytes
// a cold RunCellSpec returns, and returns those bytes.
func checkColdBytes(t *testing.T, c *Client, specs []spec.RunSpec) [][]byte {
	t.Helper()
	ctx := context.Background()
	var out [][]byte
	for _, rs := range specs {
		hash, err := rs.Hash()
		if err != nil {
			t.Fatal(err)
		}
		stored, err := c.SpecResult(ctx, hash)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := RunCellSpec(ctx, rs)
		if err != nil {
			t.Fatal(err)
		}
		if string(stored) != string(cold) {
			t.Errorf("%s cell bytes differ from RunCellSpec:\nstored: %s\ncold:   %s", rs.Scheme, stored, cold)
		}
		out = append(out, cold)
	}
	return out
}

// TestWarmRunnerSharesBiModalPrefix pins that the Bi-Modal family scales
// its core parameters to the warmup, not to the measured length: two
// bimodal cells that differ only in measured length form one warm group,
// the second restores the first one's blob, and both store the bytes of a
// cold RunCellSpec.
func TestWarmRunnerSharesBiModalPrefix(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, SweepFanout: 2})
	var specs []spec.RunSpec
	for _, n := range []int64{300, 500} {
		rs, err := (spec.RunSpec{Scheme: "bimodal", Mix: "Q1",
			Options: spec.Options{AccessesPerCore: n, WarmupPerCore: 400, CacheDivisor: 64}, Seed: 6}).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, rs)
	}
	if got := sweepOrigins(t, c, SweepRequest{Specs: specs}); got["run"] != 1 || got["warm"] != 1 {
		t.Errorf("origins = %v, want 1 run + 1 warm", got)
	}
	if hits, misses := s.mSnapHits.Value(), s.mSnapMisses.Value(); hits != 1 || misses != 1 {
		t.Errorf("snapshot hits %d, misses %d; want 1 and 1", hits, misses)
	}
	checkColdBytes(t, c, specs)
}

// TestWarmRunnerSkipsUnsharedPrefix pins the sealing policy: a sweep of
// one alloy and one bimodal cell shares no prefix between its misses (the
// schemes differ), so both run cold, nothing is sealed and the store holds
// the two results only.
func TestWarmRunnerSkipsUnsharedPrefix(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, SweepFanout: 2})
	var specs []spec.RunSpec
	var prefixes []string
	for _, scheme := range []string{"alloy", "bimodal"} {
		rs, err := (spec.RunSpec{Scheme: scheme, Mix: "Q1",
			Options: spec.Options{AccessesPerCore: 400, WarmupPerCore: 300, CacheDivisor: 64}, Seed: 4}).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		prefix, ok, err := rs.PrefixHash()
		if err != nil || !ok {
			t.Fatalf("%s: PrefixHash: ok=%v err=%v", scheme, ok, err)
		}
		specs = append(specs, rs)
		prefixes = append(prefixes, prefix)
	}
	if got := sweepOrigins(t, c, SweepRequest{Specs: specs}); got["run"] != 2 {
		t.Errorf("origins = %v, want 2 run", got)
	}
	checkSealedNothing(t, s, c, 2, prefixes...)
	checkColdBytes(t, c, specs)
}

// TestWarmRunnerStoresResultsOnly checks that a planned group's snapshot
// stays out of the result store: after a sweep whose second cell restored
// the first one's warm state, the prefix hash answers 404 not_found.
func TestWarmRunnerStoresResultsOnly(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, SweepFanout: 2})
	ctx := context.Background()
	req := samePrefixSweep(t)
	req.Specs = req.Specs[:2]
	if got := sweepOrigins(t, c, req); got["run"] != 1 || got["warm"] != 1 {
		t.Errorf("origins = %v, want 1 run + 1 warm", got)
	}
	prefix, _, err := req.Specs[0].PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SpecResult(ctx, prefix)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Code != CodeNotFound {
		t.Errorf("GET /v1/specs/{prefix}/result: err = %v, want 404 not_found", err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "bimodal_store_entries"); got != 2 {
		t.Errorf("bimodal_store_entries = %d, want 2 (cell results only)", got)
	}
	if got := metricValue(t, metrics, "bimodal_snapshot_bytes_total"); got == 0 {
		t.Error("bimodal_snapshot_bytes_total = 0, want the group's sealed blob")
	}
}
