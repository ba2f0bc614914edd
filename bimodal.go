// Package bimodal is a Go reproduction of "Bi-Modal DRAM Cache: Improving
// Hit Rate, Hit Latency and Bandwidth" (Gulur, Mehendale, Manikantan,
// Govindarajan — MICRO 2014).
//
// The implementation lives in internal packages; this root package is a
// small facade over the pieces a downstream user typically wants:
//
//   - internal/core      — the Bi-Modal cache itself (bi-modal sets, way
//     locator, block size predictor, global adaptation)
//   - internal/dramcache — timing schemes: BiModal and every baseline the
//     paper compares against (AlloyCache, Loh-Hill, ATCache, Footprint)
//   - internal/dram, internal/memctrl — the stacked/off-chip DRAM timing
//     substrate
//   - internal/trace, internal/workloads — synthetic SPEC-like workloads
//   - internal/sim, internal/experiments — system assembly and the
//     drivers that regenerate every table and figure of the paper
//
// Quick start:
//
//	mix, err := bimodal.WorkloadByName("Q7")
//	if err != nil { ... }
//	opts := bimodal.Options{AccessesPerCore: 100_000}
//	res := bimodal.RunBiModal(mix, opts)
//	fmt.Println(res.Report.HitRate(), res.Report.AvgLatency())
//
// Schemes are named as everywhere else in the repository ("bimodal",
// "alloy", "bimodal-only", ...; see SchemeNames), and every run entry point
// builds them through the scheme registry and runs one sim.Sim through its
// warmup and measured windows exactly as cmd/bmsim, the service and the
// figures do, so a name means one scheme on every path.
// Long runs take the context-aware entry points, which stop within a few
// thousand simulated accesses of cancellation:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	res, err := bimodal.RunSchemeContext(ctx, "alloy", mix, opts)
//
// Simulation results are a pure function of (mix, scheme, Options) — never
// of timing, worker counts or cancellation — so concurrent sweeps over
// these entry points reproduce serial output exactly. See the examples
// directory and cmd/paper for complete programs.
package bimodal

import (
	"context"

	"bimodal/internal/dramcache"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// Options configures a simulation run; it aliases sim.Options.
type Options = sim.Options

// RunResult aliases sim.RunResult.
type RunResult = sim.RunResult

// Mix aliases workloads.Mix.
type Mix = workloads.Mix

// SchemeNames lists every scheme name in comparison order.
func SchemeNames() []string { return spec.Names() }

// WorkloadByName returns a named workload mix (Q1..Q24, E1..E16, S1..S8),
// or an error for unknown names.
func WorkloadByName(name string) (Mix, error) { return workloads.ByName(name) }

// Workload returns a named workload mix (Q1..Q24, E1..E16, S1..S8); it
// panics on unknown names. It is the convenience wrapper over
// WorkloadByName for literals known to exist ("must" semantics).
func Workload(name string) Mix { return workloads.MustByName(name) }

// Workloads returns the mix table for a core count (4, 8 or 16).
func Workloads(cores int) ([]Mix, error) { return workloads.ForCores(cores) }

// RunBiModal runs the mix on the paper's Bi-Modal cache with run-length
// scaled adaptation parameters. It panics where RunScheme would return an
// error: on a mix without a name or options a run spec rejects, such as a
// negative AccessesPerCore or a cache size that is not a power of two.
func RunBiModal(mix Mix, o Options) RunResult {
	res, err := RunBiModalContext(context.Background(), mix, o)
	if err != nil {
		panic(err)
	}
	return res
}

// RunBiModalContext is RunBiModal with cancellation: when ctx ends
// mid-run the simulation stops promptly and ctx.Err() is returned.
func RunBiModalContext(ctx context.Context, mix Mix, o Options) (RunResult, error) {
	return RunSchemeContext(ctx, "bimodal", mix, o)
}

// RunScheme runs the mix on a named scheme (see SchemeNames).
func RunScheme(name string, mix Mix, o Options) (RunResult, error) {
	return RunSchemeContext(context.Background(), name, mix, o)
}

// RunSchemeContext runs the mix on a named scheme with cancellation.
func RunSchemeContext(ctx context.Context, name string, mix Mix, o Options) (RunResult, error) {
	_, res, err := run(ctx, name, mix, o, false)
	return res, err
}

// ANTT runs the mix multiprogrammed and standalone on a named scheme and
// returns the Average Normalized Turnaround Time (lower is better).
func ANTT(name string, mix Mix, o Options) (float64, error) {
	antt, _, err := ANTTContext(context.Background(), name, mix, o)
	return antt, err
}

// ANTTContext computes ANTT on a named scheme with cancellation: it runs
// the mix once, then each benchmark standalone, the standalone runs fanned
// out over o.Workers goroutines. It also returns the multiprogrammed
// result.
func ANTTContext(ctx context.Context, name string, mix Mix, o Options) (float64, RunResult, error) {
	return run(ctx, name, mix, o, true)
}

// run simulates the mix on the named scheme through sim.ForSpec, with
// antt also each benchmark standalone: o and the scheme name become the
// run spec, so a facade run is the spec run of the same name.
func run(ctx context.Context, name string, mix Mix, o Options, antt bool) (float64, RunResult, error) {
	rs := spec.RunSpec{Scheme: name, Mix: mix.Name, Seed: o.Seed, Options: spec.Options{
		AccessesPerCore: o.AccessesPerCore,
		WarmupPerCore:   o.WarmupPerCore,
		CacheBytes:      o.CacheBytes,
		CacheDivisor:    o.CacheDivisor,
		Prefetch:        o.PrefetchN,
		ANTT:            antt,
	}}
	s, err := sim.ForSpec(nil, rs, mix, o.Workers)
	if err != nil {
		return 0, RunResult{}, err
	}
	if err := s.Warmup(ctx); err != nil {
		return 0, RunResult{}, err
	}
	res, err := s.Measure(ctx)
	return res.ANTT, res, err
}

// NewBiModalScheme builds a standalone Bi-Modal scheme instance for direct
// Access-level use (see dramcache.Scheme).
func NewBiModalScheme(cores int) *dramcache.BiModal {
	return dramcache.NewBiModal(dramcache.DefaultConfig(cores))
}
