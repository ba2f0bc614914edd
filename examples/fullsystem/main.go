// Fullsystem demonstrates the complete memory hierarchy of Table IV: cores
// issue L2-level accesses, a 4MB shared LLSC filters them, and only the
// misses and dirty writebacks reach the Bi-Modal DRAM cache — exactly the
// traffic the paper's trace-driven studies replay.
//
//	go run ./examples/fullsystem
package main

import (
	"context"
	"fmt"

	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/stats"
	"bimodal/internal/trace"
	"bimodal/internal/workloads"
)

func main() {
	mix := workloads.MustByName("Q11") // astar, omnetpp, gcc, sphinx3

	// Build the raw per-core streams, then interpose the LLSC. The raw
	// streams model L2-level traffic: scale the profile gaps down (the
	// LLSC absorbs most of the rate, restoring DRAM-cache-level gaps).
	var gens []trace.Generator
	var filters []*trace.LLSCFilter
	for i, bench := range mix.Benchmarks {
		p := trace.MustProfile(bench)
		p.GapMean = max(p.GapMean/10, 1)
		raw := trace.NewSynthetic(p, workloads.CoreBase(i), uint64(i)+1)
		f := trace.NewLLSCFilter(raw, 1<<20, 8) // 1MB LLSC slice per core
		filters = append(filters, f)
		gens = append(gens, f)
	}

	cfg := dramcache.DefaultConfig(mix.Cores())
	cfg.CacheBytes = 32 << 20
	scheme := dramcache.NewBiModal(cfg)
	engine := cpu.NewEngine(scheme, gens, cpu.DefaultCoreConfig(), nil)
	// Warm up for 50k accesses per core, then measure the next 50k.
	ctx := context.Background()
	pre, err := engine.WarmupContext(ctx, 50_000)
	if err != nil {
		panic(err)
	}
	per, err := engine.MeasureAfterWarmupContext(ctx, 50_000, pre)
	if err != nil {
		panic(err)
	}

	fmt.Println("per-core hierarchy behaviour:")
	tbl := stats.NewTable("", "core", "benchmark", "LLSC miss rate", "DRAM$ hit rate", "IPC")
	for i, c := range per {
		tbl.AddRow(fmt.Sprint(c.Core), mix.Benchmarks[i],
			stats.FmtPct(filters[i].MissRate()),
			stats.FmtPct(stats.Ratio(c.Hits, c.Accesses)),
			fmt.Sprintf("%.3f", c.IPC()))
	}
	fmt.Print(tbl)

	r := scheme.Report()
	fmt.Printf("\nDRAM cache: hit rate %s, avg latency %.1f cycles, way locator %s\n",
		stats.FmtPct(r.HitRate()), r.AvgLatency(), stats.FmtPct(r.LocatorHitRate()))
	fmt.Printf("off-chip traffic: %s read, %s written (writebacks from the LLSC\n",
		stats.FmtBytes(float64(r.OffchipReadBytes)), stats.FmtBytes(float64(r.OffchipWriteBytes)))
	fmt.Println("and from dirty DRAM-cache evictions at 64B granularity)")
}
