package cpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"bimodal/internal/addr"
	"bimodal/internal/dramcache"
	"bimodal/internal/trace"
)

// fakeScheme returns fixed latencies and records requests.
type fakeScheme struct {
	latency  int64
	requests []dramcache.Request
	times    []int64
}

func (f *fakeScheme) Name() string { return "fake" }
func (f *fakeScheme) Access(req dramcache.Request, now int64) dramcache.Result {
	f.requests = append(f.requests, req)
	f.times = append(f.times, now)
	return dramcache.Result{Done: now + f.latency, Hit: false}
}
func (f *fakeScheme) Report() dramcache.Report { return dramcache.Report{} }
func (f *fakeScheme) ResetStats()              {}

// run replays one phase of accessesPerCore accesses on every core and
// returns the cumulative results at its end.
func run(t testing.TB, e *Engine, accessesPerCore int64) []CoreResult {
	t.Helper()
	res, err := e.WarmupContext(context.Background(), accessesPerCore)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runMeasured runs a warmup window and then the measured window, reported
// relative to it, as sim.Sim does.
func runMeasured(t testing.TB, e *Engine, warmup, measure int64) []CoreResult {
	t.Helper()
	ctx := context.Background()
	pre, err := e.WarmupContext(ctx, warmup)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.MeasureAfterWarmupContext(ctx, measure, pre)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func gen(accs ...trace.Access) trace.Generator {
	return &trace.SliceGen{Accs: accs, Lab: "t"}
}

func TestCoreConfigValidate(t *testing.T) {
	if DefaultCoreConfig().Validate() != nil {
		t.Error("default config invalid")
	}
	if (CoreConfig{CPIBase: 0, MSHRs: 1}).Validate() == nil {
		t.Error("zero CPI accepted")
	}
	if (CoreConfig{CPIBase: 1, MSHRs: 0}).Validate() == nil {
		t.Error("zero MSHRs accepted")
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	// Two independent misses with tiny gaps: the second issues before the
	// first completes.
	f := &fakeScheme{latency: 1000}
	g := gen(
		trace.Access{Addr: 0, Gap: 10},
		trace.Access{Addr: 64, Gap: 10},
	)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8}, nil)
	res := run(t, e, 2)
	if f.times[1]-f.times[0] >= 1000 {
		t.Errorf("second miss issued %d cycles after first; should overlap", f.times[1]-f.times[0])
	}
	// Total cycles ~ 10 + 10 + 1000, not 2x1000.
	if res[0].Cycles > 1500 {
		t.Errorf("cycles = %d; misses did not overlap", res[0].Cycles)
	}
}

func TestDependentMissesSerialize(t *testing.T) {
	f := &fakeScheme{latency: 1000}
	g := gen(
		trace.Access{Addr: 0, Gap: 10},
		trace.Access{Addr: 64, Gap: 10, Dep: true},
	)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8}, nil)
	res := run(t, e, 2)
	if f.times[1]-f.times[0] < 1000 {
		t.Errorf("dependent miss issued after %d cycles; should wait for completion", f.times[1]-f.times[0])
	}
	if res[0].Cycles < 2000 {
		t.Errorf("cycles = %d; dependent chain should serialize", res[0].Cycles)
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	f := &fakeScheme{latency: 10000}
	var accs []trace.Access
	for i := 0; i < 4; i++ {
		accs = append(accs, trace.Access{Addr: addr.Phys(i * 64), Gap: 1})
	}
	g := gen(accs...)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 2}, nil)
	run(t, e, 4)
	// With 2 MSHRs, the third miss cannot issue until the first retires.
	if f.times[2] < 10000 {
		t.Errorf("third miss issued at %d; MSHR limit not enforced", f.times[2])
	}
}

func TestWritesDoNotOccupyMSHRs(t *testing.T) {
	f := &fakeScheme{latency: 10000}
	var accs []trace.Access
	for i := 0; i < 6; i++ {
		accs = append(accs, trace.Access{Addr: addr.Phys(i * 64), Gap: 1, Write: true})
	}
	g := gen(accs...)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 2}, nil)
	res := run(t, e, 6)
	if res[0].Cycles > 100 {
		t.Errorf("posted writes stalled the core: %d cycles", res[0].Cycles)
	}
}

func TestGapAdvancesTimeWithCPI(t *testing.T) {
	f := &fakeScheme{latency: 1}
	g := gen(trace.Access{Addr: 0, Gap: 100})
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 0.5, MSHRs: 8}, nil)
	run(t, e, 1)
	if f.times[0] != 50 {
		t.Errorf("issue time = %d, want 50 (gap 100 x CPI 0.5)", f.times[0])
	}
}

func TestMultiCoreOrdering(t *testing.T) {
	// Requests must reach the scheme in approximately global time order.
	f := &fakeScheme{latency: 10}
	g1 := gen(trace.Access{Addr: 0, Gap: 5}, trace.Access{Addr: 64, Gap: 5})
	g2 := gen(trace.Access{Addr: 128, Gap: 50}, trace.Access{Addr: 192, Gap: 50})
	e := NewEngine(f, []trace.Generator{g1, g2}, CoreConfig{CPIBase: 1, MSHRs: 8}, nil)
	run(t, e, 2)
	for i := 1; i < len(f.times); i++ {
		if f.times[i] < f.times[i-1] {
			t.Errorf("request %d at %d before request %d at %d", i, f.times[i], i-1, f.times[i-1])
		}
	}
}

func TestResultsAccounting(t *testing.T) {
	f := &fakeScheme{latency: 100}
	g := gen(
		trace.Access{Addr: 0, Gap: 10},
		trace.Access{Addr: 64, Gap: 10, Write: true},
		trace.Access{Addr: 128, Gap: 10},
	)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8}, nil)
	res := run(t, e, 3)
	r := res[0]
	if r.Accesses != 3 || r.Reads != 2 || r.Insts != 30 {
		t.Errorf("result: %+v", r)
	}
	if r.LatencySum != 200 {
		t.Errorf("latency sum = %d, want 200", r.LatencySum)
	}
	if r.Benchmark != "t" || r.IPC() <= 0 {
		t.Errorf("metadata: %+v", r)
	}
}

func TestFinishDrainsOutstanding(t *testing.T) {
	f := &fakeScheme{latency: 5000}
	g := gen(trace.Access{Addr: 0, Gap: 1})
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8}, nil)
	res := run(t, e, 1)
	if res[0].Cycles < 5000 {
		t.Errorf("cycles = %d; final miss not drained", res[0].Cycles)
	}
}

func TestANTT(t *testing.T) {
	multi := []CoreResult{{Cycles: 150}, {Cycles: 300}}
	single := []CoreResult{{Cycles: 100}, {Cycles: 200}}
	if got := ANTT(multi, single); got != 1.5 {
		t.Errorf("ANTT = %v, want 1.5", got)
	}
}

func TestANTTGrowsWithInterference(t *testing.T) {
	single := []CoreResult{{Cycles: 100}, {Cycles: 100}}
	light := []CoreResult{{Cycles: 110}, {Cycles: 120}}
	heavy := []CoreResult{{Cycles: 200}, {Cycles: 250}}
	if !(ANTT(heavy, single) > ANTT(light, single)) {
		t.Error("ANTT should grow with interference")
	}
}

func TestANTTPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ANTT([]CoreResult{{Cycles: 1}}, nil)
}

func TestPrefetcherIssuesNextN(t *testing.T) {
	f := &fakeScheme{latency: 10}
	pf := NewPrefetcher(3, 1)
	g := gen(trace.Access{Addr: 0x1000, Gap: 1})
	e := NewEngine(f, []trace.Generator{g}, DefaultCoreConfig(), pf)
	run(t, e, 1)
	// 1 demand + 3 prefetches.
	if len(f.requests) != 4 {
		t.Fatalf("requests = %d, want 4", len(f.requests))
	}
	for i := 1; i <= 3; i++ {
		r := f.requests[i]
		if !r.Prefetch {
			t.Errorf("request %d not marked prefetch", i)
		}
		if want := addr.Phys(0x1000 + i*64); r.Addr != want {
			t.Errorf("prefetch %d addr = %x, want %x", i, r.Addr, want)
		}
	}
	if pf.Issued != 3 {
		t.Errorf("issued = %d", pf.Issued)
	}
}

func TestPrefetcherFilterSuppressesDuplicates(t *testing.T) {
	f := &fakeScheme{latency: 10}
	pf := NewPrefetcher(1, 1)
	g := gen(
		trace.Access{Addr: 0x1000, Gap: 1},
		trace.Access{Addr: 0x1000, Gap: 1}, // same line again
	)
	e := NewEngine(f, []trace.Generator{g}, DefaultCoreConfig(), pf)
	run(t, e, 2)
	if pf.Issued != 1 || pf.Suppressed != 1 {
		t.Errorf("issued=%d suppressed=%d, want 1/1", pf.Issued, pf.Suppressed)
	}
}

func TestPrefetcherDemandLineNotPrefetched(t *testing.T) {
	// Accessing line L then L+1 as demand: the prefetch for L+1 (from L's
	// access) marks it seen, and L+1's own demand access is unaffected.
	f := &fakeScheme{latency: 10}
	pf := NewPrefetcher(1, 1)
	g := gen(
		trace.Access{Addr: 0x2000, Gap: 1},
		trace.Access{Addr: 0x2040, Gap: 1},
	)
	e := NewEngine(f, []trace.Generator{g}, DefaultCoreConfig(), pf)
	res := run(t, e, 2)
	if res[0].Accesses != 2 {
		t.Errorf("demand accesses = %d", res[0].Accesses)
	}
	demand := 0
	for _, r := range f.requests {
		if !r.Prefetch {
			demand++
		}
	}
	if demand != 2 {
		t.Errorf("demand requests seen by scheme = %d", demand)
	}
}

func TestPrefetcherValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPrefetcher(0, 1)
}

func TestEndToEndWithRealScheme(t *testing.T) {
	cfg := dramcache.Config{Cores: 4, CacheBytes: 1 << 20, StackedChannels: 2, OffChannels: 1, WayLocatorK: 10, Seed: 1}
	s := dramcache.NewBiModal(cfg)
	gens := []trace.Generator{
		trace.NewSynthetic(trace.MustProfile("soplex"), 0, 1),
		trace.NewSynthetic(trace.MustProfile("mcf"), 1<<32, 2),
	}
	e := NewEngine(s, gens, DefaultCoreConfig(), nil)
	res := run(t, e, 5000)
	for _, r := range res {
		if r.Cycles <= 0 || r.Accesses != 5000 {
			t.Errorf("core %d: %+v", r.Core, r)
		}
	}
	rep := s.Report()
	// Finished cores keep executing until all reach quota, so the scheme
	// sees at least (and usually more than) the counted accesses.
	if rep.Accesses < 10000 {
		t.Errorf("scheme saw %d accesses, want >= 10000", rep.Accesses)
	}
}

func TestContentionSlowsCores(t *testing.T) {
	// The same benchmark runs slower sharing the machine with a heavy
	// co-runner than standalone — the effect ANTT measures.
	mk := func() dramcache.Scheme {
		return dramcache.NewBiModal(dramcache.Config{
			Cores: 4, CacheBytes: 1 << 20, StackedChannels: 2, OffChannels: 1, WayLocatorK: 10, Seed: 1})
	}
	solo := run(t, NewEngine(mk(), []trace.Generator{
		trace.NewSynthetic(trace.MustProfile("omnetpp"), 0, 5),
	}, DefaultCoreConfig(), nil), 8000)

	shared := run(t, NewEngine(mk(), []trace.Generator{
		trace.NewSynthetic(trace.MustProfile("omnetpp"), 0, 5),
		trace.NewSynthetic(trace.MustProfile("lbm"), 1<<32, 6),
		trace.NewSynthetic(trace.MustProfile("milc"), 2<<32, 7),
		trace.NewSynthetic(trace.MustProfile("mcf"), 3<<32, 8),
	}, DefaultCoreConfig(), nil), 8000)

	if shared[0].Cycles <= solo[0].Cycles {
		t.Errorf("shared run (%d cycles) not slower than solo (%d)", shared[0].Cycles, solo[0].Cycles)
	}
}

func TestRunMeasuredContextCancelled(t *testing.T) {
	// A pre-cancelled context must stop a phase that would otherwise take
	// tens of millions of accesses, and return no results.
	f := &fakeScheme{latency: 10}
	g := trace.NewSynthetic(trace.MustProfile("mcf"), 1, 1)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := e.WarmupContext(ctx, 50_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != 0 {
		t.Error("cancelled phase returned results")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s; should be near-immediate", elapsed)
	}
}
