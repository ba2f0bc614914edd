package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

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
// same-prefix sweep is one group, so it warms up and measures once (one
// snapshot miss), reads every other cell off that run (origin "warm") and
// still stores, for every cell, exactly the bytes a cold run of its spec
// returns.
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
		t.Errorf("snapshot misses = %d, want 1 (the group must run exactly once)", got)
	}
	if got := metricValue(t, metrics, "bimodal_snapshot_hits_total"); got != 9 {
		t.Errorf("snapshot hits = %d, want 9", got)
	}
	if strings.Contains(metrics, "bimodal_snapshot_bytes_total") {
		t.Error("metrics still carry bimodal_snapshot_bytes_total; a sweep seals nothing")
	}

	var specs []spec.RunSpec
	for _, rs := range samePrefixSweep(t).Specs {
		canon, err := rs.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, canon)
	}
	checkColdBytes(t, c, specs)
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

// checkSharedNothing asserts that the server's sweeps so far moved no
// snapshot counter (every group was a group of one), that its store holds
// nothing but the given number of cell results, and that none of the
// given prefix hashes has an entry there.
func checkSharedNothing(t *testing.T, s *Server, c *Client, cells int, prefixes ...string) {
	t.Helper()
	metrics, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bimodal_snapshot_hits_total", "bimodal_snapshot_misses_total"} {
		if got := metricValue(t, metrics, name); got != 0 {
			t.Errorf("%s = %d, want 0 (nothing to share)", name, got)
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

// TestWarmRunnerSharesANTTPrefix pins that ANTT does not shape warmup:
// two ANTT cells differing only in measured length form one group, and so
// do an ANTT cell and its non-ANTT twin, which share one capture of the
// run, and a three-cell group whose ANTT cell sits at the same quota as a
// plain one. In each sweep one cell runs the group and the others are read
// off its run, and every cell's bytes, the antt field included, equal a
// cold RunCellSpec of its spec.
func TestWarmRunnerSharesANTTPrefix(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, SweepFanout: 2})
	cell := func(n int64, antt bool) spec.RunSpec {
		rs, err := spec.RunSpec{Scheme: "alloy", Mix: "Q1", Seed: 2,
			Options: spec.Options{AccessesPerCore: n, WarmupPerCore: 300, CacheDivisor: 64, ANTT: antt}}.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	var hits, misses int64
	for _, specs := range [][]spec.RunSpec{
		{cell(300, true), cell(400, true)},
		{cell(500, true), cell(500, false)},
		{cell(450, false), cell(250, false), cell(450, true)},
	} {
		if got := sweepOrigins(t, c, SweepRequest{Specs: specs}); got["run"] != 1 || got["warm"] != len(specs)-1 {
			t.Errorf("origins = %v, want 1 run + %d warm", got, len(specs)-1)
		}
		hits, misses = hits+int64(len(specs)-1), misses+1
		if h, m := s.mSnapHits.Value(), s.mSnapMisses.Value(); h != hits || m != misses {
			t.Errorf("snapshot hits %d, misses %d; want %d and %d", h, m, hits, misses)
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
// bimodal cells that differ only in measured length form one group, the
// second is read off the first one's run, and both store the bytes of a
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

// TestWarmRunnerSharesTenantPrefix gives an 8-core multi-tenant workload
// group the same checks: three cells that differ only in measured length,
// one of them with ANTT, form one group, and every cell's bytes, its
// per-tenant attribution included, equal a cold RunCellSpec.
func TestWarmRunnerSharesTenantPrefix(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, SweepFanout: 3})
	var specs []spec.RunSpec
	for i, n := range []int64{400, 250, 400} {
		rs, err := (spec.RunSpec{Scheme: "bimodal", Workload: &spec.WorkloadSpec{
			Cores:       8,
			Tenants:     []spec.TenantSpec{{Profile: "kvstore", Weight: 2}, {Profile: "webserve"}, {Profile: "scan"}},
			SharedPct:   5,
			SharedPages: 64,
		}, Options: spec.Options{AccessesPerCore: n, WarmupPerCore: 300, CacheDivisor: 64, ANTT: i == 2}, Seed: 9}).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, rs)
	}
	if got := sweepOrigins(t, c, SweepRequest{Specs: specs}); got["run"] != 1 || got["warm"] != 2 {
		t.Errorf("origins = %v, want 1 run + 2 warm", got)
	}
	if hits, misses := s.mSnapHits.Value(), s.mSnapMisses.Value(); hits != 2 || misses != 1 {
		t.Errorf("snapshot hits %d, misses %d; want 2 and 1", hits, misses)
	}
	for i, raw := range checkColdBytes(t, c, specs) {
		if !strings.Contains(string(raw), `"per_tenant"`) {
			t.Errorf("cell %d has no per-tenant attribution: %s", i, raw)
		}
	}
}

// TestWarmRunnerSkipsUnsharedPrefix pins the grouping policy: a sweep of
// one alloy and one bimodal cell shares no prefix between its misses (the
// schemes differ), so each is a group of one, nothing is shared and the
// store holds the two results only.
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
	checkSharedNothing(t, s, c, 2, prefixes...)
	checkColdBytes(t, c, specs)
}

// TestWarmRunnerStoresResultsOnly checks that a group leaves nothing but
// its cells' results in the store: after a sweep whose second cell was
// read off the first one's run, the prefix hash answers 404 not_found, the
// store holds the two results, and both are a cold run's bytes.
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
	var specs []spec.RunSpec
	for _, rs := range req.Specs {
		canon, err := rs.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, canon)
	}
	checkColdBytes(t, c, specs)
}
