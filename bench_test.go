// Benchmark harness: one benchmark per paper table and figure (each runs
// the corresponding experiment driver at reduced scale and reports
// wall-time per regeneration), plus microbenchmarks of the hot simulator
// paths.
//
//	go test -bench=. -benchmem
package bimodal_test

import (
	"context"
	"testing"

	"bimodal/internal/bench"
	"bimodal/internal/experiments"
)

// benchOptions keeps each experiment regeneration small enough to iterate.
// Workers is pinned to 1: with a parallel pool the wall-clock measures host
// scheduling, not simulator work, and regression comparisons drown in
// noise. Serial runs measure exactly the code the microbenchmarks cover.
func benchOptions() experiments.Options {
	return experiments.Options{
		AccessesPerCore: 2_000,
		StreamAccesses:  30_000,
		Seed:            1,
		MaxMixes:        1,
		Workers:         1,
	}
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		if tbl.NumRows() == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig1BlockSizeSweep(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2Utilization(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3LatencyBreakdown(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig5MRU(b *testing.B)              { benchExperiment(b, "fig5") }
func BenchmarkFig7ANTT(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8aAblation(b *testing.B)        { benchExperiment(b, "fig8a") }
func BenchmarkFig8bHitRate(b *testing.B)         { benchExperiment(b, "fig8b") }
func BenchmarkFig8cLatency(b *testing.B)         { benchExperiment(b, "fig8c") }
func BenchmarkFig9aWastedBW(b *testing.B)        { benchExperiment(b, "fig9a") }
func BenchmarkFig9bMetadataRBH(b *testing.B)     { benchExperiment(b, "fig9b") }
func BenchmarkFig9cWayLocator(b *testing.B)      { benchExperiment(b, "fig9c") }
func BenchmarkFig10SmallFraction(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11Energy(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12Sensitivity(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkTable3WayLocatorStorage(b *testing.B) {
	benchExperiment(b, "table3")
}
func BenchmarkTable5Workloads(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6Prefetch(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkExtMissPredictor(b *testing.B) {
	benchExperiment(b, "ext-misspred")
}
func BenchmarkExtVictimCache(b *testing.B)    { benchExperiment(b, "ext-victim") }
func BenchmarkExtTenantSlowdown(b *testing.B) { benchExperiment(b, "ext-tenant") }
func BenchmarkSweepThreshold(b *testing.B)    { benchExperiment(b, "sweep-threshold") }
func BenchmarkSweepWeight(b *testing.B)       { benchExperiment(b, "sweep-weight") }
func BenchmarkSweepPredictor(b *testing.B)    { benchExperiment(b, "sweep-predictor") }

// --- microbenchmarks of the simulator's hot paths ---
//
// Bodies live in internal/bench, shared with the bmbench regression
// runner: `go test -bench` here and a committed BENCH_<date>.json baseline
// measure exactly the same code. See each case's doc comment there.

func BenchmarkBiModalAccess(b *testing.B)          { bench.Run(b, "BiModalAccess") }
func BenchmarkBiModalAccessMissHeavy(b *testing.B) { bench.Run(b, "BiModalAccessMissHeavy") }
func BenchmarkAlloyAccess(b *testing.B)            { bench.Run(b, "AlloyAccess") }
func BenchmarkCoreCacheAccess(b *testing.B)        { bench.Run(b, "CoreCacheAccess") }
func BenchmarkWayLocatorLookup(b *testing.B)       { bench.Run(b, "WayLocatorLookup") }
func BenchmarkDRAMChannelAccess(b *testing.B)      { bench.Run(b, "DRAMChannelAccess") }
func BenchmarkMemctrlRead(b *testing.B)            { bench.Run(b, "MemctrlRead") }
func BenchmarkTraceGeneration(b *testing.B)        { bench.Run(b, "TraceGeneration") }
func BenchmarkEndToEndMix(b *testing.B)            { bench.Run(b, "EndToEndMix") }
func BenchmarkEndToEndMixPooled(b *testing.B)      { bench.Run(b, "EndToEndMixPooled") }
func BenchmarkSweepColdWarmup(b *testing.B)        { bench.Run(b, "SweepColdWarmup") }
func BenchmarkSweepWarmRestore(b *testing.B)       { bench.Run(b, "SweepWarmRestore") }
func BenchmarkSweepSharedRun(b *testing.B)         { bench.Run(b, "SweepSharedRun") }
func BenchmarkSweepPooled(b *testing.B)            { bench.Run(b, "SweepPooled") }
func BenchmarkWarmSnapshot(b *testing.B)           { bench.Run(b, "WarmSnapshot") }
func BenchmarkWarmRestore(b *testing.B)            { bench.Run(b, "WarmRestore") }
func BenchmarkTraceNextKVStore(b *testing.B)       { bench.Run(b, "TraceNextKVStore") }
func BenchmarkTraceNextWebserve(b *testing.B)      { bench.Run(b, "TraceNextWebserve") }
func BenchmarkTraceNextScan(b *testing.B)          { bench.Run(b, "TraceNextScan") }
func BenchmarkTraceNextInterleave4(b *testing.B)   { bench.Run(b, "TraceNextInterleave4") }
