package service

import (
	"context"
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

// TestWarmRunnerFallsBackOnCorruptSnapshot proves a poisoned snapshot
// store degrades to cold runs instead of failing cells, and that the
// fallback counts as a snapshot miss, not a hit.
func TestWarmRunnerFallsBackOnCorruptSnapshot(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	rs := spec.RunSpec{Scheme: "alloy", Mix: "Q1",
		Options: spec.Options{AccessesPerCore: 400, WarmupPerCore: 300, CacheDivisor: 64}, Seed: 9}
	prefix, ok, err := rs.PrefixHash()
	if err != nil || !ok {
		t.Fatalf("PrefixHash: ok=%v err=%v", ok, err)
	}
	// Poison the snapshot slot before any cell runs.
	if err := s.Store().Put(prefix, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}

	st, err := c.SubmitSweep(ctx, SweepRequest{Specs: []spec.RunSpec{rs}})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.WaitSweep(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCompleted {
		t.Fatalf("sweep with corrupt snapshot: state %s (%s)", fin.State, fin.Error)
	}
	canonical, err := rs.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := canonical.Hash()
	if err != nil {
		t.Fatal(err)
	}
	stored, err := c.SpecResult(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunCellSpec(ctx, canonical)
	if err != nil {
		t.Fatal(err)
	}
	if string(stored) != string(cold) {
		t.Error("fallback result differs from cold run")
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "bimodal_snapshot_hits_total"); got != 0 {
		t.Errorf("snapshot hits = %d, want 0 (no restore replaced warmup)", got)
	}
	if got := metricValue(t, metrics, "bimodal_snapshot_misses_total"); got != 1 {
		t.Errorf("snapshot misses = %d, want 1 (the cold fallback)", got)
	}
}

// TestWarmRunnerSkipsANTT pins the no-prefix path: ANTT cells run cold
// and never touch the snapshot counters.
func TestWarmRunnerSkipsANTT(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	rs, err := (spec.RunSpec{Scheme: "alloy", Mix: "S1",
		Options: spec.Options{AccessesPerCore: 300, CacheDivisor: 64, ANTT: true}, Seed: 2}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	raw, warm, err := s.warm.RunCell(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Error("ANTT cell reported a warm restore")
	}
	if len(raw) == 0 {
		t.Error("empty cell result")
	}
	if n := s.warm.misses.Value(); n != 0 {
		t.Errorf("snapshot misses = %d after an ANTT cell, want 0", n)
	}
}

// TestWarmRunnerSkipsUnsharedPrefix pins the sealing policy: a bimodal
// cell (MeasuredCoupled, so its prefix covers the whole spec) runs
// straight through, seals no blob and moves no snapshot counter, while an
// Alloy cell on the same runner still warms up as its prefix's producer
// and stores its blob.
func TestWarmRunnerSkipsUnsharedPrefix(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	cell := func(scheme string) (rs spec.RunSpec, prefix string) {
		t.Helper()
		rs, err := (spec.RunSpec{Scheme: scheme, Mix: "Q1",
			Options: spec.Options{AccessesPerCore: 400, WarmupPerCore: 300, CacheDivisor: 64}, Seed: 4}).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		prefix, ok, err := rs.PrefixHash()
		if err != nil || !ok {
			t.Fatalf("%s: PrefixHash: ok=%v err=%v", scheme, ok, err)
		}
		return rs, prefix
	}
	counters := func() [3]int64 {
		return [3]int64{s.warm.hits.Value(), s.warm.misses.Value(), s.warm.bytes.Value()}
	}

	bm, bmPrefix := cell("bimodal")
	raw, warm, err := s.warm.RunCell(ctx, bm)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Error("bimodal cell reported a warm restore")
	}
	cold, err := RunCellSpec(ctx, bm)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(cold) {
		t.Errorf("bimodal cell bytes differ from RunCellSpec:\nwarm runner: %s\ncold:        %s", raw, cold)
	}
	if _, found, err := s.Store().Get(bmPrefix); err != nil || found {
		t.Errorf("bimodal prefix %s has a stored blob (found=%v, err=%v)", bmPrefix, found, err)
	}
	if got := counters(); got != [3]int64{} {
		t.Errorf("snapshot hits/misses/bytes = %v after a bimodal cell, want all 0", got)
	}

	al, alPrefix := cell("alloy")
	if _, warm, err := s.warm.RunCell(ctx, al); err != nil || warm {
		t.Fatalf("alloy producer: warm=%v err=%v", warm, err)
	}
	if n := s.warm.misses.Value(); n != 1 {
		t.Errorf("snapshot misses = %d after an alloy cell, want 1", n)
	}
	if _, found, err := s.Store().Get(alPrefix); err != nil || !found {
		t.Errorf("alloy prefix %s has no stored blob (found=%v, err=%v)", alPrefix, found, err)
	}
}
