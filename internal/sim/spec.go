package sim

import (
	"fmt"

	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
)

// OptionsForSpec translates a run spec into sim.Options. Workers is left
// zero (serial): parallelism is an execution concern the spec — and
// therefore the result hash — deliberately cannot express; callers set it
// separately.
func OptionsForSpec(rs spec.RunSpec) Options {
	return Options{
		AccessesPerCore: rs.Options.AccessesPerCore,
		WarmupPerCore:   rs.Options.WarmupPerCore,
		Seed:            rs.Seed,
		CacheBytes:      rs.Options.CacheBytes,
		CacheDivisor:    rs.Options.CacheDivisor,
		PrefetchN:       rs.Options.Prefetch,
	}
}

// FactoryForSpec returns the factory every run of the spec uses: the
// figures, cmd/bmsim, the service, the cluster and the facade. A scheme
// whose descriptor is MeasuredCoupled (the Bi-Modal family: plain bimodal
// and its presets) gets the run-length-scaled core parameters
// (ScaledCoreParams); baselines build with their paper defaults. Spec
// params overlay either way, so geometry overrides compose with the
// scaling.
func FactoryForSpec(rs spec.RunSpec, cores int) (Factory, error) {
	c, err := rs.Canonical()
	if err != nil {
		return nil, err
	}
	d, err := spec.Lookup(c.Scheme)
	if err != nil {
		return nil, err
	}
	o := OptionsForSpec(c).normalize()
	return func(cfg dramcache.Config) dramcache.Scheme {
		bc := spec.BuildConfig{Cache: cfg}
		if d.MeasuredCoupled {
			p := ScaledCoreParams(cfg.CacheBytes, cores, o.AccessesPerCore)
			bc.CoreParams = &p
		}
		s, err := d.New(bc, c.Params)
		if err != nil {
			// The spec canonicalized above, so every parameter passed its
			// schema and cross checks; a build failure here is a bug.
			panic(fmt.Sprintf("sim: building %s from validated spec: %v", c.Scheme, err))
		}
		return s
	}, nil
}
