// Command bmsim runs a single DRAM cache simulation: one workload mix on
// one scheme, printing hit rate, latency, bandwidth and energy metrics.
// Ctrl-C cancels the run; -timeout bounds it; -workers parallelizes the
// standalone baselines of -antt.
//
// Examples:
//
//	bmsim -scheme bimodal -mix Q7
//	bmsim -scheme alloy -mix E3 -accesses 500000
//	bmsim -scheme bimodal -mix Q2 -prefetch 3 -antt -workers 0
//	bmsim -scheme bimodal -mix Q7 -json | jq .cells[0].hit_rate
//	bmsim -scheme bimodal-cometa -mix Q7 -dump-spec > run.json
//	bmsim -spec run.json
//	bmsim -scheme alloy -mix Q7 -checkpoint warm.bmsn
//	bmsim -scheme alloy -mix Q7 -restore warm.bmsn
//
// -checkpoint seals the complete simulator state at the warmup/measure
// boundary into a file; -restore replays it instead of re-running warmup.
// A checkpoint binds to its warmup prefix (spec.PrefixHash), so restoring
// under an incompatible spec fails instead of producing wrong numbers;
// results after a restore are byte-identical to a straight-through run.
// -antt leaves the prefix alone (its standalone runs follow the measured
// window), so a checkpoint restores into the ANTT run of the same spec.
//
// A run is fully described by its canonical run spec (internal/spec):
// -dump-spec prints the canonical spec JSON for the given flags (with its
// content hash on stderr) without running, and -spec replays a spec file
// ("-" reads stdin), guaranteeing the same result bytes as any other
// runner of the same spec — including the bmserved sweep service.
//
// -json emits the same machine-readable schema a bmserved sweep returns
// (a service.SweepResult with one cell), so scripts consume CLI and
// server output identically.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"bimodal/internal/energy"
	"bimodal/internal/engine"
	"bimodal/internal/profiling"
	"bimodal/internal/service"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/stats"
	"bimodal/internal/workloads"
)

func main() {
	var (
		schemeName = flag.String("scheme", "bimodal", "scheme name or alias (see paper -schemes for the registry)")
		mixName    = flag.String("mix", "Q1", "workload mix (Q1..Q24, E1..E16, S1..S8)")
		accesses   = flag.Int64("accesses", 300_000, "accesses per core")
		seed       = flag.Uint64("seed", 1, "random seed")
		cacheBytes = flag.Uint64("cache", 0, "DRAM cache bytes (0 = Table IV preset)")
		prefetchN  = flag.Int("prefetch", 0, "next-N-lines prefetch depth (0 = off)")
		withANTT   = flag.Bool("antt", false, "also run standalone baselines and report ANTT")
		specFile   = flag.String("spec", "", "run a canonical run-spec JSON file instead of the scheme/mix flags (\"-\" reads stdin)")
		dumpSpec   = flag.Bool("dump-spec", false, "print the canonical run spec and exit without simulating")
		workers    = flag.Int("workers", 0, "worker pool for the ANTT standalone runs (0 = NumCPU, 1 = serial)")
		timeout    = flag.Duration("timeout", 0, "run deadline (0 = none)")
		jsonOut    = flag.Bool("json", false, "emit the service result schema (JSON) instead of tables")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file at exit")
		checkpoint = flag.String("checkpoint", "", "write the warm-state snapshot (sealed at the warmup/measure boundary) to this file")
		restoreF   = flag.String("restore", "", "restore the warm state from this checkpoint file instead of running warmup")
	)
	flag.Parse()

	rs, err := buildSpec(*specFile, *schemeName, *mixName, *accesses, *seed, *cacheBytes, *prefetchN, *withANTT)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmsim:", err)
		os.Exit(1)
	}
	if *dumpSpec {
		if err := printSpec(rs); err != nil {
			fmt.Fprintln(os.Stderr, "bmsim:", err)
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	stopCPU, perr := profiling.StartCPU(*cpuProf)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "bmsim:", perr)
		os.Exit(1)
	}
	err = run(ctx, rs, *workers, *jsonOut, *checkpoint, *restoreF)
	// Flush profiles before any exit path: failed or interrupted runs are
	// the ones most worth profiling.
	stopCPU()
	if perr := profiling.WriteHeap(*memProf); perr != nil {
		fmt.Fprintln(os.Stderr, "bmsim:", perr)
	}
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "bmsim: interrupted")
		os.Exit(1)
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "bmsim: run exceeded -timeout=%s\n", *timeout)
		os.Exit(1)
	case err != nil:
		fmt.Fprintln(os.Stderr, "bmsim:", err)
		os.Exit(1)
	}
}

// buildSpec resolves the run spec: from -spec when given (rejecting
// conflicting per-run flags so a replay is exactly the file's spec), else
// from the individual flags. The result is canonical either way.
func buildSpec(specFile, schemeName, mixName string, accesses int64, seed, cacheBytes uint64, prefetchN int, withANTT bool) (spec.RunSpec, error) {
	var rs spec.RunSpec
	if specFile != "" {
		conflicting := map[string]bool{
			"scheme": true, "mix": true, "accesses": true, "seed": true,
			"cache": true, "prefetch": true, "antt": true,
		}
		var clash []string
		flag.Visit(func(f *flag.Flag) {
			if conflicting[f.Name] {
				clash = append(clash, "-"+f.Name)
			}
		})
		if len(clash) > 0 {
			return spec.RunSpec{}, fmt.Errorf("-spec conflicts with %v: the spec file is the whole run configuration", clash)
		}
		b, err := readSpecFile(specFile)
		if err != nil {
			return spec.RunSpec{}, err
		}
		if rs, err = spec.Parse(b); err != nil {
			return spec.RunSpec{}, err
		}
	} else {
		rs = spec.RunSpec{
			Scheme: schemeName,
			Mix:    mixName,
			Seed:   seed,
			Options: spec.Options{
				AccessesPerCore: accesses,
				CacheBytes:      cacheBytes,
				Prefetch:        prefetchN,
				ANTT:            withANTT,
			},
		}
	}
	return rs.Canonical()
}

func readSpecFile(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// printSpec writes the canonical spec (indented, for humans and version
// control) to stdout and its content hash to stderr.
func printSpec(rs spec.RunSpec) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	hash, err := rs.Hash()
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bmsim: spec hash", hash)
	return nil
}

// run resolves the spec into a simulation, warms it up (or restores the
// warm state from -restore, sealing it to -checkpoint when asked) and runs
// the measured window, which for -antt includes the standalone runs. A
// checkpoint binds to the spec's warmup prefix hash, which -antt does not
// change, so a checkpoint from a different configuration is rejected, and
// a restored run is byte-identical to a straight-through one.
func run(ctx context.Context, rs spec.RunSpec, workers int, jsonOut bool, checkpoint, restore string) error {
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		return err
	}
	s, err := sim.ForSpec(nil, rs, mix, engine.Workers(workers))
	if err != nil {
		return err
	}
	if checkpoint == "" && restore == "" {
		err = s.Warmup(ctx)
	} else {
		err = warmCheckpointed(ctx, rs, s, checkpoint, restore)
	}
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := s.Measure(ctx)
	if err != nil {
		return err
	}
	measured := time.Since(start)
	if jsonOut {
		return printJSON(rs, service.NewCellResult(rs.Scheme, res))
	}

	r := res.Report

	hash, err := rs.Hash()
	if err != nil {
		return err
	}
	tbl := stats.NewTable(fmt.Sprintf("%s on %s (%d cores, %d accesses/core)",
		r.Scheme, mix.Name, mix.Cores(), rs.Options.AccessesPerCore), "metric", "value")
	tbl.AddRow("hit rate", stats.FmtPct(r.HitRate()))
	tbl.AddRow("avg access latency", fmt.Sprintf("%.1f cycles", r.AvgLatency()))
	if r.LocatorLookups > 0 {
		tbl.AddRow("way locator hit rate", stats.FmtPct(r.LocatorHitRate()))
	}
	if r.MetaReads > 0 {
		tbl.AddRow("metadata row-buffer hit rate", stats.FmtPct(r.MetaRowHitRate()))
	}
	tbl.AddRow("off-chip read traffic", stats.FmtBytes(float64(r.OffchipReadBytes)))
	tbl.AddRow("off-chip write traffic", stats.FmtBytes(float64(r.OffchipWriteBytes)))
	tbl.AddRow("wasted fetch bytes", stats.FmtBytes(float64(r.WastedFetchBytes)))
	if r.SmallFraction > 0 {
		tbl.AddRow("small-block access fraction", stats.FmtPct(r.SmallFraction))
	}
	tbl.AddRow("stacked row-buffer hit rate", stats.FmtPct(r.Stacked.RowHitRate()))
	tbl.AddRow("energy per access", fmt.Sprintf("%.1f nJ", energy.PerAccess(res.Energy, r.Accesses)))
	tbl.AddRow("spec hash", hash)
	fmt.Print(tbl)

	per := stats.NewTable("per-core results", "core", "benchmark", "cycles", "IPC", "hit rate")
	for _, c := range res.PerCore {
		per.AddRow(fmt.Sprint(c.Core), c.Benchmark, fmt.Sprint(c.Cycles),
			fmt.Sprintf("%.3f", c.IPC()), stats.FmtPct(stats.Ratio(c.Hits, c.Accesses)))
	}
	fmt.Print(per)

	if rs.Options.ANTT {
		fmt.Printf("ANTT = %.3f (lower is better, computed in %s)\n", res.ANTT, measured.Round(time.Millisecond))
	}
	return nil
}

// warmCheckpointed brings s to the warmup/measure boundary through the
// checkpoint seam: -restore overwrites warmup with the file's sealed
// snapshot (validated against this spec's warmup prefix hash); otherwise
// s warms up, and -checkpoint seals the warm state to a file.
func warmCheckpointed(ctx context.Context, rs spec.RunSpec, s *sim.Sim, checkpoint, restore string) error {
	prefix, ok, err := rs.PrefixHash()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("this spec has no reusable warmup prefix (warmup disabled); -checkpoint/-restore do not apply")
	}
	if restore != "" {
		blob, err := os.ReadFile(restore)
		if err != nil {
			return err
		}
		if err := s.Restore(blob, prefix); err != nil {
			return fmt.Errorf("restoring %s: %w", restore, err)
		}
		fmt.Fprintf(os.Stderr, "bmsim: restored warm state from %s (prefix %s)\n", restore, prefix)
	} else if err := s.Warmup(ctx); err != nil {
		return err
	}
	if checkpoint != "" {
		blob := s.Snapshot(prefix)
		if err := os.WriteFile(checkpoint, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bmsim: wrote warm checkpoint %s (%d bytes, prefix %s)\n", checkpoint, len(blob), prefix)
	}
	return nil
}

// printJSON emits a service.SweepResult with one cell — the same schema
// bmserved returns. The echoed request is the canonical form, exactly as
// the server would echo it.
func printJSON(rs spec.RunSpec, cell service.CellResult) error {
	req := service.SweepRequest{
		Mixes:   []string{rs.Mix},
		Schemes: []string{rs.Scheme},
		Seed:    rs.Seed,
		Options: rs.Options,
	}
	if len(rs.Params) > 0 {
		// Scheme params are only expressible in the spec request form.
		req = service.SweepRequest{Specs: []spec.RunSpec{rs}}
	}
	out := service.SweepResult{
		Request: req,
		Cells:   []service.CellResult{cell},
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
