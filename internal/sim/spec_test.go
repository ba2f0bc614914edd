package sim

import (
	"reflect"
	"strings"
	"testing"

	"bimodal/internal/core"
	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// TestFactoryForSpecMatchesLegacy checks that a spec builds the scheme
// the figures mean by its name, byte for byte: each Bi-Modal family member
// and each parameter variant the experiments run (fig9c's locator size,
// fig12's geometry, the T sweep, the miss predictor and the victim buffer)
// matches a hand-built dramcache.NewBiModal with the run-length-scaled
// core parameters and the matching option, and each baseline matches its
// constructor.
func TestFactoryForSpecMatchesLegacy(t *testing.T) {
	mix := workloads.MustByName("E1")
	bm := func(opts ...dramcache.BiModalOption) func(dramcache.Config, core.Params) dramcache.Scheme {
		return func(cfg dramcache.Config, p core.Params) dramcache.Scheme {
			return dramcache.NewBiModal(cfg, append([]dramcache.BiModalOption{dramcache.WithCoreParams(p)}, opts...)...)
		}
	}
	baseline := func(ctor func(dramcache.Config) dramcache.Scheme) func(dramcache.Config, core.Params) dramcache.Scheme {
		return func(cfg dramcache.Config, _ core.Params) dramcache.Scheme { return ctor(cfg) }
	}
	cases := []struct {
		name     string
		scheme   string
		params   spec.Params
		prefetch int
		ref      func(dramcache.Config, core.Params) dramcache.Scheme
	}{
		{name: "bimodal", scheme: "bimodal", ref: bm()},
		{name: "bimodal-only", scheme: "bimodal-only", ref: bm(dramcache.WithoutLocator())},
		{name: "wl-only", scheme: "wl-only", ref: bm(dramcache.FixedBigBlocks())},
		{name: "bimodal-cometa", scheme: "bimodal-cometa",
			ref: bm(dramcache.CoLocatedMetadata(), dramcache.WithName("BiModalCoMeta"))},
		{name: "bimodal-bypass", scheme: "bimodal-bypass", prefetch: 1,
			ref: bm(dramcache.WithPrefetchBypass(), dramcache.WithName("BiModalPrefBypass"))},
		{name: "fig9c K=10", scheme: "bimodal", params: spec.Params{"way_locator_k": 10},
			ref: func(cfg dramcache.Config, p core.Params) dramcache.Scheme {
				cfg.WayLocatorK = 10
				return dramcache.NewBiModal(cfg, dramcache.WithCoreParams(p))
			}},
		{name: "fig12 1024-4", scheme: "bimodal",
			params: spec.Params{"set_bytes": 4096, "big_block": 1024, "min_big": 2, "threshold": 10},
			ref: func(cfg dramcache.Config, p core.Params) dramcache.Scheme {
				p.SetBytes, p.BigBlock, p.MinBig, p.Threshold = 4096, 1024, 2, 10
				return dramcache.NewBiModal(cfg, dramcache.WithCoreParams(p))
			}},
		{name: "T=3", scheme: "bimodal", params: spec.Params{"threshold": 3},
			ref: func(cfg dramcache.Config, p core.Params) dramcache.Scheme {
				p.Threshold = 3
				return dramcache.NewBiModal(cfg, dramcache.WithCoreParams(p))
			}},
		{name: "miss predictor", scheme: "bimodal", params: spec.Params{"miss_predictor": 1},
			ref: bm(dramcache.WithMissPredictor())},
		{name: "victims", scheme: "bimodal", params: spec.Params{"victim_entries": 256},
			ref: bm(dramcache.WithVictimCache(256))},
		{name: "alloy", scheme: "alloy", ref: baseline(func(c dramcache.Config) dramcache.Scheme { return dramcache.NewAlloy(c) })},
		{name: "lohhill", scheme: "lohhill", ref: baseline(func(c dramcache.Config) dramcache.Scheme { return dramcache.NewLohHill(c) })},
		{name: "atcache", scheme: "atcache", ref: baseline(func(c dramcache.Config) dramcache.Scheme { return dramcache.NewATCache(c) })},
		{name: "footprint", scheme: "footprint", ref: baseline(func(c dramcache.Config) dramcache.Scheme { return dramcache.NewFootprint(c) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := spec.RunSpec{
				Scheme:  tc.scheme,
				Params:  tc.params,
				Mix:     mix.Name,
				Seed:    7,
				Options: spec.Options{AccessesPerCore: 3000, CacheDivisor: 64, Prefetch: tc.prefetch},
			}
			specFactory, err := FactoryForSpec(rs, mix.Cores())
			if err != nil {
				t.Fatal(err)
			}
			opts := OptionsForSpec(rs)
			ref := func(cfg dramcache.Config) dramcache.Scheme {
				return tc.ref(cfg, ScaledCoreParams(cfg.CacheBytes, mix.Cores(), opts.AccessesPerCore))
			}
			want := run(t, mix, ref, opts)
			got := run(t, mix, specFactory, opts)
			if !reflect.DeepEqual(want.Report, got.Report) {
				t.Errorf("report diverged\nreference %+v\nspec      %+v", want.Report, got.Report)
			}
			if !reflect.DeepEqual(want.PerCore, got.PerCore) {
				t.Error("per-core results diverged")
			}
			if want.Energy != got.Energy {
				t.Error("energy diverged")
			}
			wb, wok := want.Scheme.(*dramcache.BiModal)
			gb, gok := got.Scheme.(*dramcache.BiModal)
			switch {
			case wok != gok:
				t.Fatalf("reference built %T, spec built %T", want.Scheme, got.Scheme)
			case !wok:
				return
			}
			if w, g := wb.Core().GlobalState(), gb.Core().GlobalState(); w != g {
				t.Errorf("global state: reference %v, spec %v", w, g)
			}
			if wb.WastedProbeBytes != gb.WastedProbeBytes || wb.VictimHits != gb.VictimHits {
				t.Errorf("wasted probe bytes %d/%d, victim hits %d/%d (reference/spec)",
					wb.WastedProbeBytes, gb.WastedProbeBytes, wb.VictimHits, gb.VictimHits)
			}
		})
	}
}

// TestFactoryForSpecParamsChangeResult checks spec params actually reach
// the builder: a geometry override must produce a different simulation
// than the defaults.
func TestFactoryForSpecParamsChangeResult(t *testing.T) {
	mix := workloads.MustByName("Q1")
	base := spec.RunSpec{
		Scheme:  "bimodal",
		Mix:     "Q1",
		Seed:    7,
		Options: spec.Options{AccessesPerCore: 2000, CacheDivisor: 64},
	}
	tweaked := base
	tweaked.Params = spec.Params{"fixed_big": 1}

	fa, err := FactoryForSpec(base, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := FactoryForSpec(tweaked, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	c, _ := base.Canonical()
	opts := OptionsForSpec(c)
	a := run(t, mix, fa, opts)
	b := run(t, mix, fb, opts)
	if reflect.DeepEqual(a.Report, b.Report) {
		t.Error("fixed_big param had no effect on the simulation")
	}
}

func TestFactoryForSpecRejectsBadSpecs(t *testing.T) {
	if _, err := FactoryForSpec(spec.RunSpec{Scheme: "bogus", Mix: "Q1"}, 4); err == nil ||
		!strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("unknown scheme: %v", err)
	}
	bad := spec.RunSpec{Scheme: "alloy", Mix: "Q1", Params: spec.Params{"way_locator_k": 12}}
	if _, err := FactoryForSpec(bad, 4); err == nil ||
		!strings.Contains(err.Error(), "takes no parameters") {
		t.Errorf("baseline params: %v", err)
	}
}
