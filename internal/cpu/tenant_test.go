package cpu

import (
	"testing"

	"bimodal/internal/dramcache"
	"bimodal/internal/trace"
)

// tenantGen is a SliceGen that declares a tenant count, standing in for
// trace.Interleaver in engine-level attribution tests.
type tenantGen struct {
	trace.SliceGen
	n int
}

func (g *tenantGen) Tenants() int { return g.n }

// hitScheme answers with a fixed latency and hits exactly the addresses
// below the threshold, so attribution is hand-checkable.
type hitScheme struct {
	latency int64
	below   uint64
}

func (s *hitScheme) Name() string { return "hit-below" }
func (s *hitScheme) Access(req dramcache.Request, now int64) dramcache.Result {
	return dramcache.Result{Done: now + s.latency, Hit: uint64(req.Addr) < s.below}
}
func (s *hitScheme) Report() dramcache.Report { return dramcache.Report{} }
func (s *hitScheme) ResetStats()              {}

// TestPerTenantAttribution replays a hand-written tagged stream and
// checks every per-tenant counter against its hand-computed value. Gaps
// are far larger than the scheme latency so accesses never overlap and
// each read's attributed latency is exactly the scheme latency.
func TestPerTenantAttribution(t *testing.T) {
	accs := []trace.Access{
		{Addr: 0, Gap: 1000, Tenant: 0},                    // t0 read, hit
		{Addr: 1 << 20, Gap: 2000, Write: true, Tenant: 1}, // t1 write, no read latency
		{Addr: 64, Gap: 1000, Tenant: 1},                   // t1 read, hit
		{Addr: 2 << 20, Gap: 3000, Tenant: 0},              // t0 read, miss
		{Addr: 128, Gap: 1000, Tenant: 0},                  // t0 read, hit
	}
	g := &tenantGen{SliceGen: trace.SliceGen{Accs: accs, Lab: "tagged"}, n: 2}
	e := NewEngine(&hitScheme{latency: 100, below: 1 << 10}, []trace.Generator{g},
		CoreConfig{CPIBase: 1, MSHRs: 8}, nil)
	run(t, e, int64(len(accs)))

	tens := e.TenantTotals()
	if len(tens) != 2 {
		t.Fatalf("TenantTotals has %d entries, want 2", len(tens))
	}
	want := []TenantResult{
		{Tenant: 0, Accesses: 3, Reads: 3, Hits: 2, LatencySum: 300, Insts: 5000},
		{Tenant: 1, Accesses: 2, Reads: 1, Hits: 1, LatencySum: 100, Insts: 3000},
	}
	for i := range want {
		if tens[i] != want[i] {
			t.Errorf("tenant %d = %+v, want %+v", i, tens[i], want[i])
		}
	}
}

// TestTenantOutOfRangeDropped checks a tag beyond the declared tenant
// count is ignored rather than corrupting attribution (or panicking):
// the bounds check is the engine's defense against malformed traces.
func TestTenantOutOfRangeDropped(t *testing.T) {
	accs := []trace.Access{
		{Addr: 0, Gap: 1000, Tenant: 0},
		{Addr: 64, Gap: 1000, Tenant: 7}, // beyond Tenants()==2
	}
	g := &tenantGen{SliceGen: trace.SliceGen{Accs: accs, Lab: "rogue"}, n: 2}
	e := NewEngine(&hitScheme{latency: 10, below: 1}, []trace.Generator{g},
		CoreConfig{CPIBase: 1, MSHRs: 4}, nil)
	run(t, e, int64(len(accs)))

	tens := e.TenantTotals()
	var total int64
	for _, tr := range tens {
		total += tr.Accesses
	}
	if total != 1 {
		t.Errorf("attributed %d accesses, want 1 (rogue tag dropped)", total)
	}
}

// TestSingleTenantNoAttribution checks plain generators (no Tenants
// method) pay nothing: TenantTotals is nil and no tens slices exist.
func TestSingleTenantNoAttribution(t *testing.T) {
	g := gen(trace.Access{Addr: 0, Gap: 10}, trace.Access{Addr: 64, Gap: 10})
	e := NewEngine(&hitScheme{latency: 10, below: 1}, []trace.Generator{g},
		CoreConfig{CPIBase: 1, MSHRs: 4}, nil)
	run(t, e, 2)
	if tot := e.TenantTotals(); tot != nil {
		t.Errorf("single-tenant engine reported tenant totals %+v", tot)
	}
}

// TestDeltaTenants checks the warmup-baseline subtraction.
func TestDeltaTenants(t *testing.T) {
	post := []TenantResult{
		{Tenant: 0, Accesses: 10, Reads: 8, Hits: 5, LatencySum: 800, Insts: 100},
		{Tenant: 1, Accesses: 4, Reads: 2, Hits: 1, LatencySum: 200, Insts: 40},
	}
	pre := []TenantResult{
		{Tenant: 0, Accesses: 6, Reads: 5, Hits: 3, LatencySum: 500, Insts: 60},
	}
	d := DeltaTenants(post, pre)
	if d[0] != (TenantResult{Tenant: 0, Accesses: 4, Reads: 3, Hits: 2, LatencySum: 300, Insts: 40}) {
		t.Errorf("delta[0] = %+v", d[0])
	}
	if d[1] != post[1] {
		t.Errorf("delta[1] = %+v, want unchanged %+v", d[1], post[1])
	}
	if DeltaTenants(nil, pre) != nil {
		t.Error("empty post must yield nil")
	}
}
