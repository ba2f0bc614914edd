package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"bimodal/internal/spec"
)

// tenantSpecRequest is a one-cell declarative workload sweep: four
// kvstore tenants with a shared hot region, the CI smoke shape.
func tenantSpecRequest() SweepRequest {
	return SweepRequest{
		Specs: []spec.RunSpec{{
			Scheme: "bimodal",
			Workload: &spec.WorkloadSpec{
				Tenants: []spec.TenantSpec{
					{Profile: "kvstore"}, {Profile: "kvstore"},
					{Profile: "kvstore"}, {Profile: "kvstore"},
				},
				SharedPct: 10,
			},
			Options: RunOptions{AccessesPerCore: 1500, CacheDivisor: 64},
			Seed:    7,
		}},
	}
}

// TestWorkloadSpecJob is the end-to-end acceptance test for declarative
// workloads: a 4-tenant spec must run, attribute the cell to each tenant
// in the result JSON, and be answered from the result store on
// resubmission with byte-identical bytes.
func TestWorkloadSpecJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	st, err := c.SubmitSweep(ctx, tenantSpecRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st.SweepHash == "" {
		t.Fatal("workload sweep carries no sweep hash")
	}
	st = waitCompleted(ctx, t, c, st.ID)
	if !bytes.Contains(st.Result, []byte(`"per_tenant"`)) || !bytes.Contains(st.Result, []byte(`"tenant_antt"`)) {
		t.Fatalf("result JSON lacks per-tenant attribution:\n%s", st.Result)
	}

	var res SweepResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}
	cell := res.Cells[0]
	if len(cell.PerTenant) != 4 {
		t.Fatalf("cell has %d tenant entries, want 4", len(cell.PerTenant))
	}
	if cell.TenantANTT < 1 {
		t.Errorf("tenant ANTT = %v, want >= 1", cell.TenantANTT)
	}
	best := false
	for i, tr := range cell.PerTenant {
		if tr.Tenant != i {
			t.Errorf("entry %d has tenant ID %d", i, tr.Tenant)
		}
		if tr.Accesses == 0 {
			t.Errorf("tenant %d has no attributed accesses", i)
		}
		if tr.HitRate < 0 || tr.HitRate > 1 {
			t.Errorf("tenant %d hit rate %v out of range", i, tr.HitRate)
		}
		if tr.Slowdown == 1 {
			best = true
		} else if tr.Slowdown < 1 {
			t.Errorf("tenant %d slowdown %v < 1", i, tr.Slowdown)
		}
	}
	if !best {
		t.Error("no tenant is the best-served (slowdown exactly 1)")
	}
	// The echoed request must carry the canonicalized workload (defaults
	// resolved), so re-running the echo reproduces the sweep.
	if len(res.Request.Specs) != 1 || res.Request.Specs[0].Workload == nil {
		t.Fatalf("echoed request lost the workload: %+v", res.Request)
	}
	if res.Request.Specs[0].Workload.SharedPages != spec.DefaultSharedPages {
		t.Errorf("echoed workload not canonical: %+v", res.Request.Specs[0].Workload)
	}

	// Memoization round-trip: the same workload geometry must be served
	// from the store, byte-identical, without re-simulating.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cellsBefore := metricValue(t, metrics, "bimodal_cell_seconds_count")

	st2, err := c.SubmitSweep(ctx, tenantSpecRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st2.SweepHash != st.SweepHash {
		t.Fatalf("workload sweep hash unstable: %s vs %s", st2.SweepHash, st.SweepHash)
	}
	st2 = waitCompleted(ctx, t, c, st2.ID)
	if st2.StoreHits != 1 || st2.Cells != 1 {
		t.Fatalf("resubmission answered %d/%d cells from store, want 1/1", st2.StoreHits, st2.Cells)
	}
	if !bytes.Equal(st2.Result, st.Result) {
		t.Error("store-served workload result differs from the original run")
	}
	metrics, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cellsAfter := metricValue(t, metrics, "bimodal_cell_seconds_count"); cellsAfter != cellsBefore {
		t.Errorf("cell count moved %d -> %d: the store-served workload sweep re-simulated", cellsBefore, cellsAfter)
	}

	// A geometry change is a different simulation: it must miss and must
	// produce a different sweep hash.
	req := tenantSpecRequest()
	req.Specs[0].Workload.SharedPct = 20
	st3, err := c.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st3.SweepHash == st.SweepHash {
		t.Error("changed geometry shares a sweep hash")
	}
	if st3 = waitCompleted(ctx, t, c, st3.ID); st3.StoreHits != 0 {
		t.Errorf("changed geometry answered %d cells from store, want 0", st3.StoreHits)
	}
}

// TestSingleTenantCellOmitsTenantFields pins the wire compatibility
// guarantee: classic single-tenant cells carry no per_tenant or
// tenant_antt keys, keeping pre-existing golden results byte-identical.
func TestSingleTenantCellOmitsTenantFields(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	st, err := c.SubmitSweep(ctx, SweepRequest{
		Mixes:   []string{"Q1"},
		Schemes: []string{"alloy"},
		Options: RunOptions{AccessesPerCore: 1000, CacheDivisor: 64},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st = waitCompleted(ctx, t, c, st.ID)
	if bytes.Contains(st.Result, []byte("per_tenant")) || bytes.Contains(st.Result, []byte("tenant_antt")) {
		t.Errorf("single-tenant result grew tenant fields:\n%s", st.Result)
	}
}
