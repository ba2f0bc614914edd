package sim

import (
	"testing"

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
	res := Run(mix, paperFactory(t, "bimodal"), quick())
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
	a := Run(mix, f, quick())
	b := Run(mix, f, quick())
	if a.TotalCycles() != b.TotalCycles() || a.Report.Hits != b.Report.Hits {
		t.Error("runs with identical options differ")
	}
}

func TestStandaloneFasterThanShared(t *testing.T) {
	mix := workloads.MustByName("Q1")
	f := paperFactory(t, "bimodal")
	o := quick()
	multi := Run(mix, f, o)
	single := RunStandalone(mix, f, o)
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

func TestANTTAboveOne(t *testing.T) {
	mix := workloads.MustByName("Q3")
	antt, res := ANTT(mix, paperFactory(t, "bimodal"), quick())
	if antt <= 1.0 {
		t.Errorf("ANTT = %.3f; sharing should slow programs", antt)
	}
	if res.Report.Accesses == 0 {
		t.Error("empty multi run")
	}
}

func TestScaledCoreParams(t *testing.T) {
	p := ScaledCoreParams(128<<20, 4, 100_000)
	if p.AdaptInterval != 25_000 {
		t.Errorf("interval = %d, want 25000", p.AdaptInterval)
	}
	p = ScaledCoreParams(128<<20, 4, 1_000)
	if p.AdaptInterval != 10_000 {
		t.Errorf("interval floor = %d", p.AdaptInterval)
	}
	p = ScaledCoreParams(128<<20, 16, 10_000_000)
	if p.AdaptInterval != 1_000_000 {
		t.Errorf("interval cap = %d", p.AdaptInterval)
	}
}

// TestBiModalFactoryAppliesScaledInterval checks that FactoryForSpec
// scales the core parameters of every Bi-Modal family member, the plain
// scheme and each preset alike, and of no baseline.
func TestBiModalFactoryAppliesScaledInterval(t *testing.T) {
	o := quick()
	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = o.CacheBytes
	want := ScaledCoreParams(cfg.CacheBytes, 4, o.AccessesPerCore)
	family := 0
	for _, d := range spec.Descriptors() {
		f, err := FactoryForSpec(spec.RunSpec{Scheme: d.Name, Mix: "Q1",
			Options: spec.Options{AccessesPerCore: o.AccessesPerCore}}, 4)
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
		family++
		p := bm.Core().Params()
		if p.AdaptInterval != 10_000 || p.SampleShift != want.SampleShift || p.PredictorBits != want.PredictorBits {
			t.Errorf("%s: interval %d, sample shift %d, predictor bits %d; want %d, %d, %d", d.Name,
				p.AdaptInterval, p.SampleShift, p.PredictorBits, 10_000, want.SampleShift, want.PredictorBits)
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
	res := Run(mix, f, o)
	// Prefetches add scheme accesses beyond the demand traffic.
	noPf := Run(mix, f, quick())
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
