package sim

import (
	"context"
	"fmt"
	"testing"

	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// quick returns options small enough for unit tests.
func quick() Options {
	return Options{AccessesPerCore: 4000, Seed: 3, CacheBytes: 4 << 20}
}

// paperFactory builds the named scheme through its registry descriptor
// with no CoreParams, so the Bi-Modal family keeps the paper's unscaled
// core parameters.
func paperFactory(t testing.TB, name string) Factory {
	t.Helper()
	d, err := spec.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return func(cfg dramcache.Config) dramcache.Scheme {
		s, err := d.New(spec.BuildConfig{Cache: cfg}, nil)
		if err != nil {
			panic(err)
		}
		return s
	}
}

func TestSchemeFactoryKnownNames(t *testing.T) {
	for _, n := range spec.Names() {
		cfg := dramcache.DefaultConfig(4)
		cfg.CacheBytes = 1 << 20
		s := paperFactory(t, n)(cfg)
		if s == nil || s.Name() == "" {
			t.Errorf("%s: bad scheme", n)
		}
	}
	if _, err := spec.Lookup("bogus"); err == nil {
		t.Error("unknown scheme accepted")
	}
	for _, extra := range []string{"bimodal-cometa", "bimodal-bypass"} {
		if _, err := spec.Lookup(extra); err != nil {
			t.Errorf("%s: %v", extra, err)
		}
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	mix := workloads.MustByName("Q7")
	res := run(t, mix, paperFactory(t, "bimodal"), quick())
	if res.Mix != "Q7" || len(res.PerCore) != 4 {
		t.Fatalf("result: %+v", res.Mix)
	}
	for _, c := range res.PerCore {
		if c.Accesses != 4000 || c.Cycles <= 0 {
			t.Errorf("core %d: %+v", c.Core, c)
		}
	}
	if res.Report.Accesses < 16000 {
		t.Errorf("scheme accesses = %d, want >= 16000 (finished cores keep running)", res.Report.Accesses)
	}
	if res.Energy.Total() <= 0 {
		t.Error("zero energy")
	}
	if res.TotalCycles() <= 0 {
		t.Error("zero total cycles")
	}
}

func TestRunDeterministic(t *testing.T) {
	mix := workloads.MustByName("Q1")
	f := paperFactory(t, "alloy")
	a := run(t, mix, f, quick())
	b := run(t, mix, f, quick())
	if a.TotalCycles() != b.TotalCycles() || a.Report.Hits != b.Report.Hits {
		t.Error("runs with identical options differ")
	}
}

func TestStandaloneFasterThanShared(t *testing.T) {
	mix := workloads.MustByName("Q1")
	f := paperFactory(t, "bimodal")
	o := quick()
	s := NewSim(mix, f, o)
	multi := runSim(t, s)
	single, err := ownTerms(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 4 {
		t.Fatalf("standalone results = %d", len(single))
	}
	slower := 0
	for i := range single {
		if multi.PerCore[i].Cycles > single[i].Cycles {
			slower++
		}
	}
	if slower < 3 {
		t.Errorf("only %d/4 benchmarks slowed by sharing", slower)
	}
}

// referenceStandalone builds ANTT's C^SP term for slot i the way the
// standalone runs were first written: a bare engine over the N-core
// config, slot i's generator and a one-core prefetcher, warmed up and
// measured, then relabelled with the slot.
func referenceStandalone(t *testing.T, mix workloads.Mix, factory Factory, o Options, i int) cpu.CoreResult {
	t.Helper()
	o = o.normalize()
	var pf *cpu.Prefetcher
	if o.PrefetchN > 0 {
		pf = cpu.NewPrefetcher(o.PrefetchN, 1)
	}
	eng := cpu.NewEngine(factory(ConfigFor(mix, o)), mix.Generators(o.Seed)[i:i+1], cpu.DefaultCoreConfig(), pf)
	defer eng.ReleaseReadAhead()
	ctx := context.Background()
	var res []cpu.CoreResult
	var err error
	if o.WarmupPerCore > 0 {
		var pre []cpu.CoreResult
		if pre, err = eng.WarmupContext(ctx, o.WarmupPerCore); err == nil {
			res, err = eng.MeasureAfterWarmupContext(ctx, o.AccessesPerCore, pre)
		}
	} else {
		res, err = eng.RunContext(ctx, o.AccessesPerCore)
	}
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	r.Core = i
	return r
}

// TestStandaloneMatchesReference pins the standalone terms of every
// registered scheme against referenceStandalone, with and without the
// prefetcher and warmup, on a benchmark mix and a multi-tenant one.
func TestStandaloneMatchesReference(t *testing.T) {
	for _, name := range spec.Names() {
		for _, mixName := range []string{"Q1", "DC4"} {
			for _, prefetch := range []int{0, 2} {
				for _, warmup := range []int64{0, -1} {
					rs := spec.RunSpec{Scheme: name, Mix: mixName, Seed: 3,
						Options: spec.Options{AccessesPerCore: 1500, WarmupPerCore: warmup, CacheDivisor: 64, Prefetch: prefetch}}
					t.Run(fmt.Sprintf("%s/%s/prefetch%d/warmup%d", name, mixName, prefetch, warmup), func(t *testing.T) {
						mix := workloads.MustByName(mixName)
						factory, err := FactoryForSpec(rs, mix.Cores())
						if err != nil {
							t.Fatal(err)
						}
						o := OptionsForSpec(rs)
						got, err := ownTerms(context.Background(), NewSim(mix, factory, o))
						if err != nil {
							t.Fatal(err)
						}
						for i := range got {
							if want := referenceStandalone(t, mix, factory, o, i); got[i] != want {
								t.Errorf("slot %d: %+v, want %+v", i, got[i], want)
							}
						}
					})
				}
			}
		}
	}
}

func TestANTTAboveOne(t *testing.T) {
	mix := workloads.MustByName("Q3")
	antt, res, err := anttRun(context.Background(), mix, paperFactory(t, "bimodal"), quick())
	if err != nil {
		t.Fatal(err)
	}
	if antt <= 1.0 {
		t.Errorf("ANTT = %.3f; sharing should slow programs", antt)
	}
	if res.Report.Accesses == 0 {
		t.Error("empty multi run")
	}
}

// TestScaledCoreParams checks the interval's floor and cap and that it
// scales to the warmup quota, or to the measured quota when warmup is
// disabled.
func TestScaledCoreParams(t *testing.T) {
	for _, tc := range []struct {
		cores    int
		o        Options
		interval int64
	}{
		{4, Options{AccessesPerCore: 100_000}, 25_000},
		{4, Options{AccessesPerCore: 1_000}, 10_000},          // floor
		{16, Options{AccessesPerCore: 10_000_000}, 1_000_000}, // cap
		{4, Options{AccessesPerCore: 1_000, WarmupPerCore: 100_000}, 25_000},
		{4, Options{AccessesPerCore: 100_000, WarmupPerCore: 1_000}, 10_000},
		{4, Options{AccessesPerCore: 100_000, WarmupPerCore: -1}, 25_000}, // no warmup
	} {
		if p := ScaledCoreParams(128<<20, tc.cores, tc.o); p.AdaptInterval != tc.interval {
			t.Errorf("%d cores, %+v: interval %d, want %d", tc.cores, tc.o, p.AdaptInterval, tc.interval)
		}
	}
}

// TestBiModalFactoryAppliesScaledInterval checks that FactoryForSpec
// scales the core parameters of every Bi-Modal family member, the plain
// scheme and each preset alike, and of no baseline, to the warmup quota,
// or to the measured quota when warmup is disabled.
func TestBiModalFactoryAppliesScaledInterval(t *testing.T) {
	o := quick()
	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = o.CacheBytes
	want := ScaledCoreParams(cfg.CacheBytes, 4, o)
	family := 0
	for _, d := range spec.Descriptors() {
		for _, tc := range []struct {
			accesses, warmup, interval int64
		}{
			{4_000, 0, 10_000},       // warmup defaults to the measured quota
			{4_000, 100_000, 25_000}, // the warmup sizes the interval
			{100_000, 4_000, 10_000}, // and the measured quota does not
			{100_000, -1, 25_000},    // unless warmup is disabled
			{4_000, 1_000_000, 250_000},
		} {
			f, err := FactoryForSpec(spec.RunSpec{Scheme: d.Name, Mix: "Q1",
				Options: spec.Options{AccessesPerCore: tc.accesses, WarmupPerCore: tc.warmup}}, 4)
			if err != nil {
				t.Fatal(err)
			}
			bm, ok := f(cfg).(*dramcache.BiModal)
			if d.Baseline {
				if ok {
					t.Errorf("%s: baseline built a BiModal", d.Name)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s: built %T, want *dramcache.BiModal", d.Name, f(cfg))
			}
			p := bm.Core().Params()
			if p.AdaptInterval != tc.interval || p.SampleShift != want.SampleShift || p.PredictorBits != want.PredictorBits {
				t.Errorf("%s, %d measured, %d warmup: interval %d, sample shift %d, predictor bits %d; want %d, %d, %d",
					d.Name, tc.accesses, tc.warmup, p.AdaptInterval, p.SampleShift, p.PredictorBits,
					tc.interval, want.SampleShift, want.PredictorBits)
			}
		}
		if !d.Baseline {
			family++
		}
	}
	if family != 5 {
		t.Errorf("%d Bi-Modal family schemes, want 5", family)
	}
}

func TestPrefetcherIntegration(t *testing.T) {
	mix := workloads.MustByName("Q2")
	f := paperFactory(t, "bimodal")
	o := quick()
	o.PrefetchN = 1
	res := run(t, mix, f, o)
	// Prefetches add scheme accesses beyond the demand traffic.
	noPf := run(t, mix, f, quick())
	if res.Report.Accesses <= noPf.Report.Accesses {
		t.Errorf("accesses with prefetch = %d, without = %d", res.Report.Accesses, noPf.Report.Accesses)
	}
}

func TestConfigForOverride(t *testing.T) {
	mix := workloads.MustByName("Q1")
	cfg := ConfigFor(mix, Options{CacheBytes: 64 << 20, Seed: 9})
	if cfg.CacheBytes != 64<<20 || cfg.Seed != 9 {
		t.Errorf("config: %+v", cfg)
	}
	cfg = ConfigFor(mix, Options{})
	if cfg.CacheBytes != 128<<20 {
		t.Errorf("preset not applied: %+v", cfg)
	}
}
