package sim

import (
	"fmt"
	"sort"
	"strconv"

	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// ForSpec resolves a run spec and its already-resolved mix into a
// ready-to-run Sim: drawn from pool when a simulator of the same geometry
// is idle there, built fresh otherwise (always when pool is nil). A spec
// drawn from a pool must be canonical, since its scheme name and params
// key the pool. When the spec asks for ANTT, the Sim's Measure runs the
// standalone terms too; workers bounds their fan-out (Options.Workers),
// which the spec cannot express, since it never changes a result.
// FactoryForSpec runs only when a Sim is built: a pooled Sim keeps the
// factory it was built with, and the pool key binds every spec that
// reaches it to an identically building one.
func ForSpec(pool *RunPool, rs spec.RunSpec, mix workloads.Mix, workers int) (*Sim, error) {
	o := OptionsForSpec(rs)
	o.Workers = workers
	var k poolKey
	var s *Sim
	if pool != nil {
		k = newPoolKey(poolSchemeKey(rs), mix, o)
		s = pool.take(k, mix, o)
	}
	if s == nil {
		factory, err := FactoryForSpec(rs, mix.Cores())
		if err != nil {
			return nil, err
		}
		if pool == nil {
			s = NewSim(mix, factory, o)
		} else {
			s = pool.build(k, mix, factory, o)
		}
	}
	s.antt = rs.Options.ANTT
	return s, nil
}

// poolSchemeKey derives the RunPool scheme key for a canonical run spec.
// The scheme name alone is not enough: spec params shape the built scheme
// (geometry and option overrides) beyond what Options capture, and two
// factories must never share a pool key unless they build identically.
// Params are canonical (sorted, minimal), so the key is deterministic.
func poolSchemeKey(rs spec.RunSpec) string {
	if len(rs.Params) == 0 {
		return rs.Scheme
	}
	keys := make([]string, 0, len(rs.Params))
	for k := range rs.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	b = append(b, rs.Scheme...)
	for _, k := range keys {
		b = append(b, '?')
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, rs.Params[k], 10)
	}
	return string(b)
}

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
