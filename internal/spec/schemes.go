package spec

import (
	"fmt"

	"bimodal/internal/core"
	"bimodal/internal/dramcache"
)

// The nine evaluated schemes, registered in comparison order (the order
// every figure and table lists them in). The four BiModal variants are
// presets of the "bimodal" family: the same builder and run-length
// scaling, differing only in declarative params, so any combination
// ("co_located_meta": true plus "fixed_big": true, say) is expressible
// without registering a new scheme.
func init() {
	mustRegister(Descriptor{
		Name:        "bimodal",
		Aliases:     []string{"bi-modal"},
		Description: "the paper's full design: bi-modal sets + way locator + separate metadata bank",
		Params:      biModalParams,
		CrossCheck:  biModalCrossCheck,
		Build:       buildBiModal,
	})
	mustRegister(Descriptor{
		Name:        "bimodal-only",
		Aliases:     []string{"without-locator"},
		Description: "bi-modality ablation: no way locator",
		Family:      "bimodal",
		Preset:      Params{"without_locator": 1},
	})
	mustRegister(Descriptor{
		Name:        "wl-only",
		Aliases:     []string{"fixed-big", "waylocator-only"},
		Description: "way-locator ablation: fixed 512B blocks",
		Family:      "bimodal",
		Preset:      Params{"fixed_big": 1},
	})
	mustRegister(Descriptor{
		Name:        "bimodal-cometa",
		Aliases:     []string{"cometa"},
		Description: "tags co-located with data (Figure 9b baseline)",
		Family:      "bimodal",
		Preset:      Params{"co_located_meta": 1},
		DisplayName: "BiModalCoMeta",
	})
	mustRegister(Descriptor{
		Name:        "bimodal-bypass",
		Aliases:     []string{"bypass"},
		Description: "cache bypass on prefetch misses (Table VI)",
		Family:      "bimodal",
		Preset:      Params{"prefetch_bypass": 1},
		DisplayName: "BiModalPrefBypass",
	})
	mustRegister(Descriptor{
		Name:        "alloy",
		Aliases:     []string{"alloycache"},
		Description: "AlloyCache: direct-mapped 64B TADs, one big burst",
		Baseline:    true,
		Build:       simpleBuilder(func(cfg dramcache.Config) dramcache.Scheme { return dramcache.NewAlloy(cfg) }),
	})
	mustRegister(Descriptor{
		Name:        "lohhill",
		Aliases:     []string{"loh-hill"},
		Description: "Loh-Hill: 29-way sets, compound tag-then-data accesses",
		Baseline:    true,
		Build:       simpleBuilder(func(cfg dramcache.Config) dramcache.Scheme { return dramcache.NewLohHill(cfg) }),
	})
	mustRegister(Descriptor{
		Name:        "atcache",
		Aliases:     []string{"at-cache"},
		Description: "ATCache: tags in DRAM plus an SRAM tag cache with prefetch",
		Baseline:    true,
		Build:       simpleBuilder(func(cfg dramcache.Config) dramcache.Scheme { return dramcache.NewATCache(cfg) }),
	})
	mustRegister(Descriptor{
		Name:        "footprint",
		Aliases:     []string{"footprint-cache"},
		Description: "Footprint Cache: 2KB pages, tags in SRAM, predicted fetch",
		Baseline:    true,
		Build:       simpleBuilder(func(cfg dramcache.Config) dramcache.Scheme { return dramcache.NewFootprint(cfg) }),
	})
}

// biModalParams is the declarative parameter schema of the bimodal family.
// sample_shift, predictor_bits and adapt_interval are deliberately not
// exposed: their useful values include 0-adjacent settings the zero-means-
// default convention cannot express, and callers that need them (the
// run-length scaling) pass core.Params via BuildConfig instead.
var biModalParams = []ParamDef{
	{Name: "without_locator", Doc: "drop the SRAM way locator (BiModalOnly ablation)", Bool: true},
	{Name: "fixed_big", Doc: "fix every block at BigBlock bytes (WayLocatorOnly ablation)", Bool: true},
	{Name: "co_located_meta", Doc: "co-locate tags with data instead of separate metadata banks", Bool: true},
	{Name: "prefetch_bypass", Doc: "bypass the cache on prefetch misses", Bool: true},
	{Name: "miss_predictor", Doc: "enable the cache-miss predictor", Bool: true},
	{Name: "victim_entries", Doc: "victim cache entries (0 disables)", Min: 1, Max: 1 << 16},
	{Name: "way_locator_k", Doc: "way locator index width in bits", Min: 4, Max: 24},
	{Name: "set_bytes", Doc: "set size in bytes (one DRAM page)", Min: 512, Max: 1 << 14, Pow2: true},
	{Name: "big_block", Doc: "big block size in bytes", Min: 128, Max: 2048, Pow2: true},
	{Name: "min_big", Doc: "minimum big ways per set", Min: 1, Max: 32},
	{Name: "threshold", Doc: "utilization bits for a block to classify big", Min: 1, Max: 32},
}

// biModalCrossCheck validates the geometry relations core.Params.Validate
// enforces, over the merged parameter view with the paper defaults filled
// in, so a bad spec fails at canonicalization instead of at build time.
func biModalCrossCheck(p Params) error {
	def := core.DefaultParams(1 << 27) // any pow2 size; only geometry defaults matter
	setBytes := p.Get("set_bytes", int64(def.SetBytes))
	bigBlock := p.Get("big_block", int64(def.BigBlock))
	minBig := p.Get("min_big", int64(def.MinBig))
	threshold := p.Get("threshold", int64(def.Threshold))
	switch {
	case bigBlock > setBytes:
		return fmt.Errorf("spec: big_block %d exceeds set_bytes %d", bigBlock, setBytes)
	case bigBlock/core.SmallBlock > 32:
		return fmt.Errorf("spec: big_block %d has more than 32 sub-blocks", bigBlock)
	case minBig > setBytes/bigBlock:
		return fmt.Errorf("spec: min_big %d exceeds the %d big ways of a %dB set", minBig, setBytes/bigBlock, setBytes)
	case setBytes/bigBlock > 32:
		return fmt.Errorf("spec: a %dB set has %d big ways, more than 32", setBytes, setBytes/bigBlock)
	case (setBytes/bigBlock-minBig)*(bigBlock/core.SmallBlock) > 32:
		return fmt.Errorf("spec: min_big %d leaves a %dB set %d small ways, more than 32",
			minBig, setBytes, (setBytes/bigBlock-minBig)*(bigBlock/core.SmallBlock))
	case threshold > bigBlock/core.SmallBlock:
		return fmt.Errorf("spec: threshold %d exceeds the %d sub-blocks of a big block", threshold, bigBlock/core.SmallBlock)
	}
	return nil
}

// buildBiModal assembles a BiModal instance from merged params. Geometry
// params overlay bc.CoreParams (or the paper defaults) so a spec can
// reproduce the Figure 12 sensitivity points declaratively.
func buildBiModal(bc BuildConfig, p Params) (dramcache.Scheme, error) {
	cfg := bc.Cache
	if k := p["way_locator_k"]; k > 0 {
		cfg.WayLocatorK = uint(k)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var opts []dramcache.BiModalOption
	cp := bc.CoreParams
	if p["set_bytes"] != 0 || p["big_block"] != 0 || p["min_big"] != 0 || p["threshold"] != 0 {
		base := core.DefaultParams(cfg.CacheBytes)
		if cp != nil {
			base = *cp
		}
		base.SetBytes = uint64(p.Get("set_bytes", int64(base.SetBytes)))
		base.BigBlock = uint64(p.Get("big_block", int64(base.BigBlock)))
		base.MinBig = int(p.Get("min_big", int64(base.MinBig)))
		base.Threshold = int(p.Get("threshold", int64(base.Threshold)))
		cp = &base
	}
	if cp != nil {
		check := *cp
		check.Seed = cfg.Seed // NewBiModal stamps the config seed; match it
		if err := check.Validate(); err != nil {
			return nil, err
		}
		opts = append(opts, dramcache.WithCoreParams(*cp))
	}
	if p["without_locator"] != 0 {
		opts = append(opts, dramcache.WithoutLocator())
	}
	if p["fixed_big"] != 0 {
		opts = append(opts, dramcache.FixedBigBlocks())
	}
	if p["co_located_meta"] != 0 {
		opts = append(opts, dramcache.CoLocatedMetadata())
	}
	if p["prefetch_bypass"] != 0 {
		opts = append(opts, dramcache.WithPrefetchBypass())
	}
	if p["miss_predictor"] != 0 {
		opts = append(opts, dramcache.WithMissPredictor())
	}
	if v := p["victim_entries"]; v > 0 {
		opts = append(opts, dramcache.WithVictimCache(int(v)))
	}
	if bc.Name != "" {
		opts = append(opts, dramcache.WithName(bc.Name))
	}
	return dramcache.NewBiModal(cfg, opts...), nil
}

// simpleBuilder adapts a parameterless constructor (the baselines take
// only the sized config) to the Builder shape.
func simpleBuilder(ctor func(dramcache.Config) dramcache.Scheme) Builder {
	return func(bc BuildConfig, p Params) (dramcache.Scheme, error) {
		if err := bc.Cache.Validate(); err != nil {
			return nil, err
		}
		return ctor(bc.Cache), nil
	}
}
