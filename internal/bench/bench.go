// Package bench registers the hot-path microbenchmarks once, shared by two
// harnesses: the `go test -bench` benchmarks in bench_test.go and the
// bmbench regression runner. Both execute exactly these bodies, so a
// BENCH_<date>.json baseline written by bmbench is directly comparable to
// what `go test -bench` prints.
package bench

import (
	"context"
	"fmt"
	"testing"

	bimodal "bimodal"
	"bimodal/internal/addr"
	"bimodal/internal/core"
	"bimodal/internal/dram"
	"bimodal/internal/dramcache"
	"bimodal/internal/memctrl"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/trace"
	"bimodal/internal/workloads"
	"bimodal/internal/xrand"
)

// Case is one registered microbenchmark.
type Case struct {
	// Name is the identifier used in baselines and -filter; it matches the
	// Benchmark<Name> function in bench_test.go.
	Name string
	// Info is a one-line description for bmbench -list.
	Info string
	// Run is the benchmark body.
	Run func(b *testing.B)
}

// Cases returns every registered case, in a fixed order.
func Cases() []Case { return cases }

// ByName returns the case registered under name.
func ByName(name string) (Case, bool) {
	for _, c := range cases {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// Run executes the case registered under name on b; the adapter used by
// the `go test -bench` wrappers.
func Run(b *testing.B, name string) {
	b.Helper()
	c, ok := ByName(name)
	if !ok {
		b.Fatalf("bench: no case %q registered", name)
	}
	c.Run(b)
}

var cases = []Case{
	{"BiModalAccess", "end-to-end Bi-Modal scheme access (mixed-locality workload)", biModalAccess},
	{"BiModalAccessMissHeavy", "Bi-Modal access on a streaming, miss-dominated workload", biModalAccessMissHeavy},
	{"AlloyAccess", "end-to-end Alloy baseline access", alloyAccess},
	{"CoreCacheAccess", "functional Bi-Modal cache access (no DRAM timing)", coreCacheAccess},
	{"WayLocatorLookup", "way-locator SRAM probe", wayLocatorLookup},
	{"DRAMChannelAccess", "DRAM bank timing state machine", dramChannelAccess},
	{"MemctrlRead", "memory-controller demand read (interleave + bank)", memctrlRead},
	{"TraceGeneration", "synthetic access-stream generation", traceGeneration},
	{"EndToEndMix", "complete small multiprogrammed run via the public facade", endToEndMix},
	{"EndToEndMixPooled", "the EndToEndMix cell recycled through a RunPool (steady-state Reset)", endToEndMixPooled},
	{"SweepColdWarmup", "10-cell same-prefix sweep, every cell warming from cold", sweepColdWarmup},
	{"SweepWarmRestore", "10-cell same-prefix sweep warming once via snapshot restore", sweepWarmRestore},
	{"SweepSharedRun", "the 10 SweepWarmRestore cells read off one warm run", sweepSharedRun},
	{"SweepPooled", "10-seed one-cell sweep recycling a single pooled simulator", sweepPooled},
	{"WarmSnapshot", "seal the warm state of a Bi-Modal Q7 cache/64 simulator", warmSnapshot},
	{"WarmRestore", "open and restore a sealed Bi-Modal Q7 cache/64 warm snapshot", warmRestore},
	{"TraceNextKVStore", "datacenter kvstore profile stream generation", traceNextCase("kvstore")},
	{"TraceNextWebserve", "bursty webserve profile stream generation", traceNextCase("webserve")},
	{"TraceNextScan", "analytics scan profile stream generation", traceNextCase("scan")},
	{"TraceNextInterleave4", "4-tenant weighted interleaver with a shared hot region", traceNextCase("interleave4")},
}

// biModalAccess measures one end-to-end scheme access (functional cache +
// way locator + DRAM timing).
func biModalAccess(b *testing.B) {
	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = 32 << 20
	s := dramcache.NewBiModal(cfg)
	g := trace.NewSynthetic(trace.MustProfile("soplex"), 0, 1)
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := g.Next()
		now += int64(a.Gap)
		s.Access(dramcache.Request{Addr: a.Addr, Write: a.Write}, now)
	}
}

// biModalAccessMissHeavy stresses the miss path: a streaming, low-locality
// workload (lbm: long sequential runs over a footprint far larger than the
// cache) makes most accesses capacity misses, exercising victim selection,
// the eviction scratch buffer, writeback scheduling and the off-chip fetch
// path rather than the hit fast path.
func biModalAccessMissHeavy(b *testing.B) {
	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = 8 << 20
	s := dramcache.NewBiModal(cfg)
	g := trace.NewSynthetic(trace.MustProfile("lbm"), 0, 1)
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := g.Next()
		now += int64(a.Gap)
		s.Access(dramcache.Request{Addr: a.Addr, Write: a.Write}, now)
	}
}

// alloyAccess measures the baseline's access path.
func alloyAccess(b *testing.B) {
	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = 32 << 20
	s := dramcache.NewAlloy(cfg)
	g := trace.NewSynthetic(trace.MustProfile("soplex"), 0, 1)
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := g.Next()
		now += int64(a.Gap)
		s.Access(dramcache.Request{Addr: a.Addr, Write: a.Write}, now)
	}
}

// coreCacheAccess measures the functional Bi-Modal cache alone.
func coreCacheAccess(b *testing.B) {
	p := core.DefaultParams(32 << 20)
	c := core.NewCache(p, core.NewWayLocator(14, p.BigBlock))
	g := trace.NewSynthetic(trace.MustProfile("omnetpp"), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := g.Next()
		c.Access(a.Addr, a.Write)
	}
}

// wayLocatorLookup measures the SRAM locator probe.
func wayLocatorLookup(b *testing.B) {
	wl := core.NewWayLocator(14, 512)
	r := xrand.New(1)
	for i := 0; i < 10000; i++ {
		wl.Insert(addr.Phys(r.Uint64n(1<<30))&^63, r.Bool(0.5), r.Intn(18))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wl.Lookup(addr.Phys(uint64(i)*512) & (1<<30 - 1))
	}
}

// dramChannelAccess measures the bank timing state machine.
func dramChannelAccess(b *testing.B) {
	ch := dram.NewChannel(dram.StackedTiming(), 1, 8)
	r := xrand.New(2)
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := addr.Location{Bank: r.Intn(8), Row: r.Uint64n(4096), Column: r.Uint64n(32) * 64}
		now += 20
		ch.Access(dram.OpRead, l, now, 64)
	}
}

// memctrlRead measures a full controller read (interleave + bank).
func memctrlRead(b *testing.B) {
	c := memctrl.New(memctrl.StackedConfig(2))
	r := xrand.New(3)
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 20
		c.Read(addr.Phys(r.Uint64n(1<<30))&^63, now, 64)
	}
}

// traceGeneration measures synthetic stream production.
func traceGeneration(b *testing.B) {
	g := trace.NewSynthetic(trace.MustProfile("mcf"), 0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// traceNextGenerator builds the generator a TraceNext case measures;
// shared with the zero-alloc regression test so the benchmarked path and
// the asserted path are the same object.
func traceNextGenerator(kind string) trace.Generator {
	switch kind {
	case "kvstore", "webserve", "scan":
		return trace.NewSynthetic(trace.MustProfile(kind), 0, 4)
	case "interleave4":
		streams := []trace.TenantStream{
			{Prof: trace.MustProfile("kvstore"), Weight: 1},
			{Prof: trace.MustProfile("kvstore"), Weight: 2},
			{Prof: trace.MustProfile("webserve"), Weight: 1},
			{Prof: trace.MustProfile("scan"), Weight: 1},
		}
		return trace.NewInterleaver("bench-dc4", streams, 0, 0.10, 64, 7)
	}
	panic("bench: unknown TraceNext generator " + kind)
}

// traceNextCase measures the per-access cost of one traffic-model
// generator: the datacenter profiles and the tenant interleaver are on
// every simulated access's critical path, so these track the workload
// layer the way TraceGeneration tracks the classic SPEC profiles.
func traceNextCase(kind string) func(b *testing.B) {
	return func(b *testing.B) {
		g := traceNextGenerator(kind)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Next()
		}
	}
}

// endToEndMix measures a complete small multiprogrammed run via the public
// facade.
func endToEndMix(b *testing.B) {
	mix := bimodal.Workload("Q7")
	o := bimodal.Options{AccessesPerCore: 2000, CacheDivisor: 16, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bimodal.RunBiModal(mix, o)
	}
}

// endToEndMixPooled runs the same cell as endToEndMix but draws the
// simulator from a RunPool, varying the seed each iteration the way a
// sweep does. One untimed cell builds the pooled simulator first, so
// every timed run is an in-place Reset of it and allocs/op does not
// depend on b.N; the delta against EndToEndMix is exactly what pooling
// buys: construction (metadata arrays, Zipf CDFs, generators) drops out
// and only array clears plus the access loop remain.
func endToEndMixPooled(b *testing.B) {
	mix := bimodal.Workload("Q7")
	o := bimodal.Options{AccessesPerCore: 2000, CacheDivisor: 16, Seed: 1}
	factory, err := sim.FactoryForSpec(spec.RunSpec{Scheme: "bimodal", Mix: mix.Name,
		Options: spec.Options{AccessesPerCore: o.AccessesPerCore}}, mix.Cores())
	if err != nil {
		b.Fatal(err)
	}
	pool := sim.NewRunPool(1)
	ctx := context.Background()
	run := func(seed uint64) {
		o.Seed = seed
		s := pool.Get("bimodal", mix, factory, o)
		if err := s.Warmup(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Measure(ctx); err != nil {
			b.Fatal(err)
		}
		pool.Put(s)
	}
	run(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(uint64(i) + 1)
	}
}

// --- warm-state checkpointing: sweep warmup amortization ---
//
// The three sweep cases run the same 10-cell workload — cells identical up
// to measured length, so they share one warmup prefix hash — first the
// pre-snapshot way (every cell warms from cold), then through the
// snapshot seam (warm once, seal, fork restored engines), then as a
// service sweep runs it (warm once, measure once, read every cell off the
// run). They quantify what warm sharing buys a same-prefix sweep; the
// warmup window is sized so warmup dominates, as it does in real
// convergence sweeps. TestWarmSweepBeatsColdWarmup pins the ratio >= 2x.

// warmSweepSpecs returns 10 cells differing only in measured length.
func warmSweepSpecs() []spec.RunSpec {
	var specs []spec.RunSpec
	for i := 1; i <= 10; i++ {
		specs = append(specs, spec.RunSpec{
			Scheme: "alloy",
			Mix:    "Q1",
			Options: spec.Options{
				AccessesPerCore: int64(100 * i),
				WarmupPerCore:   80_000,
				CacheDivisor:    64,
			},
			Seed: 7,
		})
	}
	return specs
}

// runSweepColdWarmup executes the sweep with per-cell warmup.
func runSweepColdWarmup() error {
	ctx := context.Background()
	for _, rs := range warmSweepSpecs() {
		mix, err := workloads.MixForSpec(rs)
		if err != nil {
			return err
		}
		s, err := sim.ForSpec(nil, rs, mix, 1)
		if err != nil {
			return err
		}
		if err := s.Warmup(ctx); err != nil {
			return err
		}
		if _, err := s.Measure(ctx); err != nil {
			return err
		}
	}
	return nil
}

// runSweepWarmRestore executes the sweep warming exactly once: the first
// cell warms, seals a snapshot, and measures on its own warm state; every
// other cell forks a restored engine.
func runSweepWarmRestore() error {
	ctx := context.Background()
	specs := warmSweepSpecs()
	prefix, ok, err := specs[0].PrefixHash()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("bench: sweep specs have no warmup prefix")
	}
	mix, err := workloads.ByName(specs[0].Mix)
	if err != nil {
		return err
	}
	factory, err := sim.FactoryForSpec(specs[0], mix.Cores())
	if err != nil {
		return err
	}
	var blob []byte
	for i, rs := range specs {
		so := sim.OptionsForSpec(rs)
		so.Workers = 1
		s := sim.NewSim(mix, factory, so)
		if i == 0 {
			if err := s.Warmup(ctx); err != nil {
				return err
			}
			blob = s.Snapshot(prefix)
		} else if err := s.Restore(blob, prefix); err != nil {
			return err
		}
		if _, err := s.Measure(ctx); err != nil {
			return err
		}
	}
	return nil
}

// runSweepSharedRun executes the sweep the way a service sweep runs a
// warm-prefix group: one Sim warms up once and measures once, to the
// longest cell, and every cell's result is read off that run as it passes
// the cell's measured length.
func runSweepSharedRun() error {
	ctx := context.Background()
	specs := warmSweepSpecs()
	mix, err := workloads.MixForSpec(specs[0])
	if err != nil {
		return err
	}
	s, err := sim.ForSpec(nil, specs[0], mix, 1)
	if err != nil {
		return err
	}
	if err := s.Warmup(ctx); err != nil {
		return err
	}
	quotas := make([]sim.Quota, len(specs))
	for i, rs := range specs {
		quotas[i].Accesses = rs.Options.AccessesPerCore
	}
	return s.MeasureEach(ctx, quotas, func(int, sim.RunResult) error { return nil })
}

// sweepColdWarmup measures the pre-snapshot sweep path. One untimed sweep
// first grows the process-wide read-ahead chunk list and marks and the
// Zipf table cache, so allocs/op does not depend on b.N.
func sweepColdWarmup(b *testing.B) {
	if err := runSweepColdWarmup(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runSweepColdWarmup(); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepWarmRestore measures the snapshot-amortized sweep path.
func sweepWarmRestore(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runSweepWarmRestore(); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepSharedRun measures the one-run sweep path. One untimed sweep
// first grows the process-wide read-ahead chunk list and marks, so
// allocs/op does not depend on b.N.
func sweepSharedRun(b *testing.B) {
	if err := runSweepSharedRun(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runSweepSharedRun(); err != nil {
			b.Fatal(err)
		}
	}
}

// runSweepPooled executes a 10-seed sweep of one alloy/Q1 cell through a
// shared RunPool — the pool's designed case: cells differing only in seed
// share one geometry key, so one simulator serves the whole sweep.
func runSweepPooled(pool *sim.RunPool, factory sim.Factory) error {
	ctx := context.Background()
	mix := workloads.MustByName("Q1")
	for seed := uint64(1); seed <= 10; seed++ {
		o := sim.Options{AccessesPerCore: 1000, CacheDivisor: 64, Seed: seed}
		s := pool.Get("alloy", mix, factory, o)
		if err := s.Warmup(ctx); err != nil {
			return err
		}
		if _, err := s.Measure(ctx); err != nil {
			return err
		}
		pool.Put(s)
	}
	return nil
}

// sweepPooled measures the pooled seed-sweep path at steady state: the
// pool outlives the benchmark loop, and one untimed sweep builds its
// simulator before the timer starts.
func sweepPooled(b *testing.B) {
	factory, err := sim.FactoryForSpec(spec.RunSpec{Scheme: "alloy", Mix: "Q1"}, 4)
	if err != nil {
		b.Fatal(err)
	}
	pool := sim.NewRunPool(1)
	if err := runSweepPooled(pool, factory); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runSweepPooled(pool, factory); err != nil {
			b.Fatal(err)
		}
	}
}

// --- warm-state checkpointing: the snapshot codec itself ---
//
// WarmSnapshot and WarmRestore isolate the two halves of a warm fork on a
// Bi-Modal Q7 cell at cache/64 after a 400-access warmup, the fork a
// service sweep makes for a pair of Bi-Modal cells that differ only in
// measured length. Most of its way locator and core ways are still
// unwritten then, and their sparse tables keep the blob under 100 KB.

// warmBiModalQ7 returns a warmed Bi-Modal Q7 cache/64 simulator, its
// congruent unwarmed twin, and the prefix hash they share.
func warmBiModalQ7() (warm, twin *sim.Sim, prefix string, err error) {
	rs, err := spec.RunSpec{Scheme: "bimodal", Mix: "Q7", Seed: 1,
		Options: spec.Options{AccessesPerCore: 200, WarmupPerCore: 400, CacheDivisor: 64}}.Canonical()
	if err != nil {
		return nil, nil, "", err
	}
	prefix, _, err = rs.PrefixHash()
	if err != nil {
		return nil, nil, "", err
	}
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		return nil, nil, "", err
	}
	if warm, err = sim.ForSpec(nil, rs, mix, 1); err != nil {
		return nil, nil, "", err
	}
	if twin, err = sim.ForSpec(nil, rs, mix, 1); err != nil {
		return nil, nil, "", err
	}
	return warm, twin, prefix, warm.Warmup(context.Background())
}

// warmSnapshot measures sealing one warm snapshot. One untimed seal sizes
// the Sim's next blobs first, so allocs/op does not depend on b.N.
func warmSnapshot(b *testing.B) {
	s, _, prefix, err := warmBiModalQ7()
	if err != nil {
		b.Fatal(err)
	}
	s.Snapshot(prefix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Snapshot(prefix)
	}
}

// warmRestore measures opening and restoring that snapshot into a
// congruent simulator (Restore overwrites all state, so one target serves
// every iteration).
func warmRestore(b *testing.B) {
	s, twin, prefix, err := warmBiModalQ7()
	if err != nil {
		b.Fatal(err)
	}
	blob := s.Snapshot(prefix)
	// One untimed restore sizes the twin's warmup baseline first, so
	// allocs/op does not depend on b.N.
	if err := twin.Restore(blob, prefix); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := twin.Restore(blob, prefix); err != nil {
			b.Fatal(err)
		}
	}
}
