// Command bmbench is the benchmark-regression harness: it runs the
// registered hot-path microbenchmarks (internal/bench — the same bodies
// `go test -bench` runs) several times each, takes the median, and writes
// a timestamped JSON snapshot. Given a baseline snapshot it compares and
// exits non-zero when any case regresses beyond the tolerance, so CI can
// gate merges on hot-path performance.
//
// Examples:
//
//	bmbench                                  # run all, write BENCH_<date>.json
//	bmbench -filter Access -runs 3           # subset, quick
//	bmbench -baseline BENCH_2026-08-06.json  # compare, exit 1 on >10% regression
//	bmbench -list                            # show registered cases
//
// Medians over -runs repetitions damp scheduler noise; allocation counts
// are compared exactly (any new allocation on a zero-alloc path fails).
// A repetition runs at least three iterations: one that completes fewer
// within -benchtime is re-run at exactly three.
//
// A snapshot written with -baseline refreshes that baseline without
// loosening it: every case the baseline holds keeps the lower of its old
// and new ns/op, allocs/op and B/op, and cases new to this run are added.
// A slower host can therefore never raise a bar, only a faster run or a
// leaner change can lower one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"bimodal/internal/bench"
)

// caseResult is one benchmark's recorded outcome (the median repetition).
type caseResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// snapshot is the BENCH_<date>.json schema.
type snapshot struct {
	Date      string                `json:"date"`
	GoVersion string                `json:"go"`
	GOOS      string                `json:"goos"`
	GOARCH    string                `json:"goarch"`
	Runs      int                   `json:"runs"`
	Benchtime string                `json:"benchtime"`
	Results   map[string]caseResult `json:"results"`
}

func main() {
	var (
		runs      = flag.Int("runs", 5, "repetitions per case; the median is recorded")
		benchtime = flag.String("benchtime", "1s", "target time per repetition (forwarded to the testing package)")
		filter    = flag.String("filter", "", "only run cases whose name contains this substring")
		out       = flag.String("out", "", "snapshot output path (default BENCH_<date>.json; '-' suppresses)")
		baseline  = flag.String("baseline", "", "compare against this snapshot; exit 1 on regression")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional ns/op regression vs the baseline")
		ratchet   = flag.String("ratchet", "EndToEndMix,EndToEndMixPooled,SweepPooled", "comma-separated cases whose ns/op and allocs/op may only ratchet down: no tolerance band, any increase over the baseline fails")
		list      = flag.Bool("list", false, "list registered cases and exit")
	)
	testing.Init() // registers -test.* flags so benchtime can be set below
	flag.Parse()

	if *list {
		for _, c := range bench.Cases() {
			fmt.Printf("  %-24s %s\n", c.Name, c.Info)
		}
		return
	}
	if *runs < 1 {
		fatal(fmt.Errorf("bmbench: -runs must be >= 1"))
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fatal(fmt.Errorf("bmbench: bad -benchtime %q: %w", *benchtime, err))
	}

	snap := snapshot{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Runs:      *runs,
		Benchtime: *benchtime,
		Results:   map[string]caseResult{},
	}
	for _, c := range bench.Cases() {
		if *filter != "" && !strings.Contains(c.Name, *filter) {
			continue
		}
		r := measure(c, *runs, *benchtime)
		snap.Results[c.Name] = r
		fmt.Printf("%-24s %12.1f ns/op %8d B/op %6d allocs/op\n",
			c.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	if len(snap.Results) == 0 {
		fatal(fmt.Errorf("bmbench: no cases match -filter %q", *filter))
	}

	var base snapshot
	if *baseline != "" {
		var err error
		if base, err = readSnapshot(*baseline); err != nil {
			fatal(err)
		}
	}
	if *out != "-" {
		path := *out
		if path == "" {
			path = "BENCH_" + snap.Date + ".json"
		}
		written := snap
		if *baseline != "" {
			written = tighten(base, snap)
		}
		if err := writeSnapshot(path, written); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bmbench: wrote %s\n", path)
	}

	if *baseline != "" {
		ratcheted := map[string]bool{}
		for _, n := range strings.Split(*ratchet, ",") {
			if n = strings.TrimSpace(n); n != "" {
				ratcheted[n] = true
			}
		}
		if !compare(base, snap, *tolerance, ratcheted) {
			os.Exit(1)
		}
	}
}

// minIterations is the fewest iterations a repetition may report: at one
// or two, runtime-internal allocations move allocs/op by one or two.
const minIterations = 3

// measure runs one case `runs` times and returns the repetition with the
// median ns/op. A repetition that completes fewer than minIterations
// within benchtime is re-run at exactly minIterations.
func measure(c bench.Case, runs int, benchtime string) caseResult {
	results := make([]testing.BenchmarkResult, 0, runs)
	for i := 0; i < runs; i++ {
		r := testing.Benchmark(c.Run)
		if r.N > 0 && r.N < minIterations {
			r = benchmarkMinIterations(c, benchtime)
		}
		if r.N == 0 {
			fatal(fmt.Errorf("bmbench: %s did not run (failed inside the benchmark body?)", c.Name))
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool {
		return float64(results[i].T)/float64(results[i].N) < float64(results[j].T)/float64(results[j].N)
	})
	m := results[len(results)/2]
	return caseResult{
		NsPerOp:     float64(m.T.Nanoseconds()) / float64(m.N),
		AllocsPerOp: m.AllocsPerOp(),
		BytesPerOp:  m.AllocedBytesPerOp(),
		Iterations:  m.N,
	}
}

// benchmarkMinIterations runs c for exactly minIterations iterations, then
// restores the -benchtime the other repetitions run at.
func benchmarkMinIterations(c bench.Case, benchtime string) testing.BenchmarkResult {
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", minIterations)); err != nil {
		fatal(err)
	}
	r := testing.Benchmark(c.Run)
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fatal(err)
	}
	return r
}

// compare reports whether current holds up against base: every shared case
// must stay within tolerance on ns/op and must not allocate more per op.
// Ratcheted cases get no tolerance band at all — their ns/op and allocs/op
// may only move down, so refreshing the committed baseline can only lower
// the bar for them. Cases present only on one side are reported but never
// fail the run, so adding or retiring a benchmark does not require a
// synchronized baseline update.
func compare(base, cur snapshot, tolerance float64, ratcheted map[string]bool) bool {
	names := make([]string, 0, len(cur.Results))
	for n := range cur.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	ok := true
	var allocBase, allocCur int64
	fmt.Printf("\ncomparison vs baseline (%s, tolerance %.0f%%):\n", base.Date, tolerance*100)
	for _, n := range names {
		c := cur.Results[n]
		b, inBase := base.Results[n]
		if !inBase {
			fmt.Printf("  %-24s new case, no baseline\n", n)
			continue
		}
		allocBase += b.AllocsPerOp
		allocCur += c.AllocsPerOp
		tol := tolerance
		tag := ""
		if ratcheted[n] {
			tol = 0
			tag = " [ratchet]"
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		switch {
		case c.AllocsPerOp > b.AllocsPerOp:
			ok = false
			fmt.Printf("  %-24s FAIL: %d allocs/op (baseline %d)%s\n", n, c.AllocsPerOp, b.AllocsPerOp, tag)
		case delta > tol:
			ok = false
			fmt.Printf("  %-24s FAIL: %+.1f%% (%.1f -> %.1f ns/op)%s\n", n, delta*100, b.NsPerOp, c.NsPerOp, tag)
		default:
			fmt.Printf("  %-24s ok:   %+.1f%% (%.1f -> %.1f ns/op)%s\n", n, delta*100, b.NsPerOp, c.NsPerOp, tag)
		}
	}
	for n := range base.Results {
		if _, inCur := cur.Results[n]; !inCur {
			fmt.Printf("  %-24s in baseline but not run\n", n)
		}
	}
	fmt.Printf("alloc-delta: %d -> %d allocs/op across shared cases (%+d)\n", allocBase, allocCur, allocCur-allocBase)
	if !ok {
		fmt.Println("bmbench: REGRESSION — rerun on a quiet machine, or update the baseline with `make bench` if the change is intended")
	}
	return ok
}

// tighten returns cur refreshed against base: every case base holds keeps
// the lower of base's and cur's ns/op (with its iteration count), allocs/op
// and B/op, each on its own, and cases only cur measured are added as they
// are. cur's own results are left alone.
func tighten(base, cur snapshot) snapshot {
	out := cur
	out.Results = make(map[string]caseResult, len(base.Results)+len(cur.Results))
	for n, c := range cur.Results {
		out.Results[n] = c
	}
	for n, b := range base.Results {
		c, ok := out.Results[n]
		if !ok {
			out.Results[n] = b
			continue
		}
		if b.NsPerOp < c.NsPerOp {
			c.NsPerOp, c.Iterations = b.NsPerOp, b.Iterations
		}
		c.AllocsPerOp = min(c.AllocsPerOp, b.AllocsPerOp)
		c.BytesPerOp = min(c.BytesPerOp, b.BytesPerOp)
		out.Results[n] = c
	}
	return out
}

func writeSnapshot(path string, s snapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSnapshot(path string) (snapshot, error) {
	var s snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("bmbench: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("bmbench: parsing %s: %w", path, err)
	}
	return s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
