package sim

import (
	"bytes"
	"context"
	"testing"

	"bimodal/internal/engine"
	"bimodal/internal/workloads"
)

// dcOptions keeps the multi-tenant tests fast while still crossing the
// warmup/measure boundary.
func dcOptions() Options {
	return Options{AccessesPerCore: 2000, Seed: 5, CacheBytes: 2 << 20}
}

// TestDCMixPerTenantResults checks a multi-tenant run attributes the
// measured window to every tenant and that the attribution is consistent
// with the per-core totals.
func TestDCMixPerTenantResults(t *testing.T) {
	mix := workloads.MustByName("DC4")
	res := run(t, mix, paperFactory(t, "bimodal"), dcOptions())
	if len(res.PerTenant) != 4 {
		t.Fatalf("PerTenant has %d entries, want 4", len(res.PerTenant))
	}
	var tenantAcc, coreAcc int64
	for i, tr := range res.PerTenant {
		if tr.Tenant != i {
			t.Errorf("entry %d has tenant ID %d", i, tr.Tenant)
		}
		if tr.Accesses == 0 {
			t.Errorf("tenant %d has no attributed accesses", i)
		}
		if tr.Hits > tr.Accesses || tr.Reads > tr.Accesses {
			t.Errorf("tenant %d counters inconsistent: %+v", i, tr)
		}
		tenantAcc += tr.Accesses
	}
	for _, pc := range res.PerCore {
		coreAcc += pc.Accesses
	}
	if tenantAcc != coreAcc {
		t.Errorf("tenant accesses sum to %d, core accesses to %d", tenantAcc, coreAcc)
	}
}

// TestSingleTenantMixHasNoPerTenant checks classic mixes stay exactly as
// before: no per-tenant attribution is reported (or paid for).
func TestSingleTenantMixHasNoPerTenant(t *testing.T) {
	res := run(t, workloads.MustByName("Q1"), paperFactory(t, "alloy"), dcOptions())
	if res.PerTenant != nil {
		t.Fatalf("single-tenant mix reported PerTenant %+v", res.PerTenant)
	}
}

// TestDCMixPooledMatchesFresh extends the pooled-reuse golden property to
// multi-tenant mixes: a pooled, Reset simulator must reproduce the fresh
// run byte-for-byte, per-tenant attribution included.
func TestDCMixPooledMatchesFresh(t *testing.T) {
	for _, name := range []string{"KV4", "DC4"} {
		name := name
		t.Run(name, func(t *testing.T) {
			mix := workloads.MustByName(name)
			factory := paperFactory(t, "bimodal")
			o1 := dcOptions()
			o2 := o1
			o2.Seed = 11

			fresh1 := encodeResult(t, runSim(t, NewSim(mix, factory, o1)))
			fresh2 := encodeResult(t, runSim(t, NewSim(mix, factory, o2)))
			if bytes.Equal(fresh1, fresh2) {
				t.Fatal("seed change not observable")
			}

			pool := NewRunPool(1)
			s := pool.Get("bimodal", mix, factory, o1)
			if got := encodeResult(t, runSim(t, s)); !bytes.Equal(got, fresh1) {
				t.Errorf("first pooled run diverges from fresh run")
			}
			pool.Put(s)
			s2 := pool.Get("bimodal", mix, factory, o2)
			if hits, _ := pool.Stats(); hits != 1 {
				t.Fatalf("second Get was not served by reuse (hits=%d)", hits)
			}
			if got := encodeResult(t, runSim(t, s2)); !bytes.Equal(got, fresh2) {
				t.Errorf("reused pooled run diverges from fresh run")
			}
		})
	}
}

// TestDCMixRestoreMatchesStraight extends the warm-restore golden
// property to multi-tenant mixes: snapshot at the warmup boundary,
// restore into a fresh Sim, measure — byte-identical to straight-through,
// per-tenant baseline subtraction included.
func TestDCMixRestoreMatchesStraight(t *testing.T) {
	mix := workloads.MustByName("DC4")
	checkRestoreGolden(t, mix, paperFactory(t, "bimodal"), dcOptions(), "sha256:dc4-test-prefix")
}

// TestDCMixParallelMatchesSerial runs the multi-tenant standalone fan-out
// (engine.Map) serially and at several worker counts: the interleaved
// per-tenant streams must make worker scheduling unobservable.
func TestDCMixParallelMatchesSerial(t *testing.T) {
	mix := workloads.MustByName("DC4")
	factory := paperFactory(t, "bimodal")
	base := dcOptions()
	base.Workers = 1
	serialStandalone, err := NewSim(mix, factory, base).standalone(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	serialANTT, serialMulti, err := anttRun(context.Background(), mix, factory, base)
	if err != nil {
		t.Fatal(err)
	}
	serialBytes := encodeResult(t, serialMulti)
	for _, workers := range []int{2, engine.Workers(0)} {
		o := base
		o.Workers = workers
		par, err := NewSim(mix, factory, o).standalone(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := range serialStandalone {
			if par[i] != serialStandalone[i] {
				t.Fatalf("workers=%d: standalone core %d = %+v, want %+v", workers, i, par[i], serialStandalone[i])
			}
		}
		antt, multi, err := anttRun(context.Background(), mix, factory, o)
		if err != nil {
			t.Fatal(err)
		}
		if antt != serialANTT {
			t.Errorf("workers=%d: ANTT %v, want %v", workers, antt, serialANTT)
		}
		if got := encodeResult(t, multi); !bytes.Equal(got, serialBytes) {
			t.Errorf("workers=%d: multiprogrammed result diverges from serial", workers)
		}
	}
}
