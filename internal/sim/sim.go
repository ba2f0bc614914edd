// Package sim assembles full-system simulations: a workload mix, a DRAM
// cache scheme, the multi-core engine and (optionally) the next-N-lines
// prefetcher, plus the standalone runs an ANTT cell measures.
package sim

import (
	"bimodal/internal/core"
	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/energy"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// Factory builds a fresh scheme instance from a configuration. Every Sim
// (multiprogrammed or standalone) gets its own instance so cache state
// never leaks between runs.
type Factory func(cfg dramcache.Config) dramcache.Scheme

// Options configures a run.
type Options struct {
	// AccessesPerCore is the per-core replay quota.
	AccessesPerCore int64
	// Seed decorrelates reruns (generators, replacement randomness).
	Seed uint64
	// CacheBytes overrides the preset DRAM cache size when non-zero.
	CacheBytes uint64
	// CacheDivisor scales the preset cache size down when CacheBytes is
	// zero. The paper warms 128-512MB caches with multi-billion-access
	// traces; affordable replays reach the same steady state (footprint
	// much larger than capacity, evictions training the predictors) by
	// shrinking capacity proportionally instead. 0 or 1 disables.
	CacheDivisor uint64
	// WarmupPerCore is the unmeasured warmup quota preceding the measured
	// window (the paper fast-forwards before collecting statistics).
	// 0 selects AccessesPerCore (1:1 warmup); negative disables warmup.
	WarmupPerCore int64
	// PrefetchN enables the next-N-lines prefetcher when positive.
	PrefetchN int
	// Workers bounds the fan-out of an ANTT cell's standalone runs, which
	// are independent simulations. 0 or 1 runs them serially; results are
	// collected in mix order either way, so the output is identical at any
	// worker count. It never shapes a Sim.
	Workers int
}

// normalize fills defaults.
func (o Options) normalize() Options {
	if o.AccessesPerCore == 0 {
		o.AccessesPerCore = spec.DefaultAccessesPerCore
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.WarmupPerCore == 0 {
		o.WarmupPerCore = o.AccessesPerCore
	}
	if o.WarmupPerCore < 0 {
		o.WarmupPerCore = 0
	}
	return o
}

// ConfigFor derives the scheme configuration for a mix under the options.
func ConfigFor(mix workloads.Mix, o Options) dramcache.Config {
	o = o.normalize()
	cfg := dramcache.DefaultConfig(mix.Cores())
	if o.CacheBytes != 0 {
		cfg.CacheBytes = o.CacheBytes
	} else if o.CacheDivisor > 1 {
		cfg.CacheBytes /= o.CacheDivisor
	}
	cfg.Seed = o.Seed
	return cfg
}

// RunResult reports one multiprogrammed run.
type RunResult struct {
	Mix     string
	PerCore []cpu.CoreResult
	// PerTenant attributes the measured window to tenant streams, indexed
	// by tenant ID; nil for single-tenant mixes.
	PerTenant []cpu.TenantResult
	Report    dramcache.Report
	Energy    energy.Breakdown
	// ANTT is the run's average normalized turnaround time when the spec
	// asked for it (spec.Options.ANTT), else 0.
	ANTT float64
	// Scheme retains the instance for scheme-specific inspection (e.g.
	// the Bi-Modal core cache).
	Scheme dramcache.Scheme
}

// TotalCycles returns the longest core runtime.
func (r RunResult) TotalCycles() int64 {
	var m int64
	for _, c := range r.PerCore {
		if c.Cycles > m {
			m = c.Cycles
		}
	}
	return m
}

// ScaledCoreParams returns the paper's core parameters for a cache size
// with the adaptation interval scaled to the run length: the paper adapts
// every 1M cache accesses over multi-billion-access traces; shorter replays
// keep the same number of adaptation opportunities by scaling the interval
// to 1/16 of the total expected accesses (min 10k).
func ScaledCoreParams(cacheBytes uint64, cores int, accessesPerCore int64) core.Params {
	p := core.DefaultParams(cacheBytes)
	interval := accessesPerCore * int64(cores) / 16
	if interval < 10_000 {
		interval = 10_000
	}
	if interval > p.AdaptInterval {
		interval = p.AdaptInterval
	}
	p.AdaptInterval = interval
	// Trace-length compensation (documented in DESIGN.md): the paper
	// trains a 2^16-entry predictor from ~4%-sampled evictions over
	// billions of accesses. Short replays keep the same *training density*
	// (updates per counter) by sampling 1/16 of sets and using a 2^12-entry
	// table; the structures and policies are unchanged.
	p.SampleShift = 4
	p.PredictorBits = 12
	return p
}
