// Quickstart: build a Bi-Modal DRAM cache system, run a quad-core
// multiprogrammed workload through it, and print the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"bimodal/internal/dramcache"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/stats"
	"bimodal/internal/workloads"
)

func main() {
	// Q7 is one of the paper's irregular mixes: mcf, art, twolf, omnetpp.
	mix := workloads.MustByName("Q7")

	// A run spec names everything a result depends on; the scheme registry
	// builds the scheme it names, exactly as cmd/bmsim and the service do.
	run := func(scheme string) sim.RunResult {
		rs := spec.RunSpec{
			Scheme: scheme,
			Mix:    mix.Name,
			Seed:   1,
			Options: spec.Options{
				AccessesPerCore: 100_000,
				CacheDivisor:    4, // scale capacity to the replay length
			},
		}
		// The spec resolves into a simulation, which warms up and then
		// runs the measured window.
		s, err := sim.ForSpec(nil, rs, mix, 1)
		if err == nil {
			err = s.Warmup(context.Background())
		}
		if err != nil {
			panic(err)
		}
		res, err := s.Measure(context.Background())
		if err != nil {
			panic(err)
		}
		return res
	}

	// Run the paper's proposal and its baseline side by side.
	bimodal := run("bimodal")
	alloy := run("alloy")

	fmt.Printf("workload %s (%d cores)\n\n", mix.Name, mix.Cores())
	for _, res := range []sim.RunResult{bimodal, alloy} {
		r := res.Report
		fmt.Printf("%-12s hit rate %-6s  avg latency %6.1f cycles  off-chip %-9s  wasted %s\n",
			r.Scheme,
			stats.FmtPct(r.HitRate()),
			r.AvgLatency(),
			stats.FmtBytes(float64(r.OffchipBytes())),
			stats.FmtBytes(float64(r.WastedFetchBytes)))
	}

	// The Bi-Modal specifics: way locator and adaptive block sizing.
	bm := bimodal.Scheme.(*dramcache.BiModal)
	r := bimodal.Report
	fmt.Printf("\nway locator hit rate: %s\n", stats.FmtPct(r.LocatorHitRate()))
	fmt.Printf("small-block access fraction: %s\n", stats.FmtPct(r.SmallFraction))
	fmt.Printf("cache-wide state (X_glob, Y_glob): %v\n", bm.Core().GlobalState())
}
