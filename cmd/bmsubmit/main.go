// Command bmsubmit submits a sweep to a running bmserved instance,
// follows its progress and prints the result JSON — the exact bytes the
// server assembled, so piping to a file preserves the determinism
// contract (same request + seed => byte-identical output).
//
// Examples:
//
//	bmsubmit -mixes Q1,Q7 -schemes bimodal,alloy -accesses 100000
//	bmsubmit -server http://sim.host:8080 -mixes E3 -schemes bimodal -antt -follow
//	bmsubmit -mixes Q1 -schemes alloy -no-wait          # fire and forget
//	bmsim -dump-spec > run.json && bmsubmit -spec run.json
//
// -spec submits canonical run specs (a single spec object or an array of
// them, e.g. from bmsim -dump-spec) instead of the mixes × schemes cross
// product. Identical submissions share a sweep hash (printed with the
// sweep id).
//
// Every cell resolves against the server's content-addressed result store
// before simulating (progress events carry origin run|warm|store), and on
// a coordinator the remaining cells shard across the worker fleet. A
// resubmission of an identical request is served entirely from the store;
// stderr ends with "N/N cells from store".
//
// When the server queue is full (HTTP 429), bmsubmit backs off and
// retries with capped exponential delays plus jitter, honoring the
// server's Retry-After hint; -retries bounds the attempts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"bimodal/internal/service"
	"bimodal/internal/spec"
)

func main() {
	var (
		server    = flag.String("server", "http://127.0.0.1:8080", "bmserved base URL")
		mixes     = flag.String("mixes", "Q1", "comma-separated workload mixes")
		schemes   = flag.String("schemes", "bimodal", "comma-separated schemes")
		accesses  = flag.Int64("accesses", 0, "accesses per core (0 = sim default)")
		warmup    = flag.Int64("warmup", 0, "warmup accesses per core (0 = same as -accesses, -1 = none)")
		seed      = flag.Uint64("seed", 1, "random seed")
		cache     = flag.Uint64("cache", 0, "DRAM cache bytes (0 = Table IV preset)")
		divisor   = flag.Uint64("cache-divisor", 0, "divide the preset cache size (scale compensation)")
		prefetchN = flag.Int("prefetch", 0, "next-N-lines prefetch depth")
		antt      = flag.Bool("antt", false, "also compute per-cell ANTT (cores+1 sims per cell)")
		specFile  = flag.String("spec", "", "submit run specs from a JSON file (one spec object or an array; \"-\" reads stdin)")
		follow    = flag.Bool("follow", false, "print per-cell progress events to stderr")
		noWait    = flag.Bool("no-wait", false, "submit and print the sweep id without waiting")
		timeout   = flag.Duration("timeout", 0, "client-side deadline (0 = none)")
		retries   = flag.Int("retries", 6, "total submission attempts while the server reports queue_full")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var req service.SweepRequest
	if *specFile != "" {
		specs, err := readSpecs(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bmsubmit:", err)
			os.Exit(1)
		}
		// Specs carry their own options; the sweep seed fills specs without
		// one. Mix/scheme/option flags are left at their (ignored) defaults
		// — the server rejects mixed-form requests.
		req = service.SweepRequest{Specs: specs, Seed: *seed}
	} else {
		req = service.SweepRequest{
			Mixes:   splitList(*mixes),
			Schemes: splitList(*schemes),
			Seed:    *seed,
			Options: service.RunOptions{
				AccessesPerCore: *accesses,
				WarmupPerCore:   *warmup,
				CacheBytes:      *cache,
				CacheDivisor:    *divisor,
				Prefetch:        *prefetchN,
				ANTT:            *antt,
			},
		}
	}
	c := service.NewClient(*server)
	backoff := service.Backoff{Attempts: *retries}
	if err := run(ctx, c, req, backoff, *follow, *noWait); err != nil {
		fmt.Fprintln(os.Stderr, "bmsubmit:", err)
		os.Exit(1)
	}
}

// readSpecs loads one spec object or an array of them.
func readSpecs(path string) ([]spec.RunSpec, error) {
	var b []byte
	var err error
	if path == "-" {
		b, err = io.ReadAll(os.Stdin)
	} else {
		b, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(b))
	if strings.HasPrefix(trimmed, "[") {
		var specs []spec.RunSpec
		if err := json.Unmarshal(b, &specs); err != nil {
			return nil, fmt.Errorf("decoding spec array: %w", err)
		}
		return specs, nil
	}
	rs, err := spec.Parse(b)
	if err != nil {
		return nil, err
	}
	return []spec.RunSpec{rs}, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// progress renders one SSE event to stderr. Cell events carry an origin
// (run|warm|store) showing whether the cell simulated, simulated from a
// restored warm snapshot, or was answered by the content-addressed store.
func progress(e service.Event) {
	switch e.Type {
	case "cell":
		origin := ""
		if e.Origin != "" {
			origin = " <" + e.Origin + ">"
		}
		fmt.Fprintf(os.Stderr, "bmsubmit: [%d/%d] %s%s\n", e.Done, e.Total, e.Cell, origin)
	case "state":
		fmt.Fprintf(os.Stderr, "bmsubmit: %s\n", e.State)
	}
}

// run submits the sweep and waits on its SSE stream until it ends,
// printing the events to stderr with follow.
func run(ctx context.Context, c *service.Client, req service.SweepRequest, b service.Backoff, follow, noWait bool) error {
	st, err := c.SubmitSweepRetry(ctx, req, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bmsubmit: %s %s (%d cells, %s)\n", st.ID, st.State, st.Cells, st.SweepHash)
	if noWait {
		fmt.Println(st.ID)
		return nil
	}
	var fn func(service.Event)
	if follow {
		fn = progress
	}
	if st, err = c.FollowSweep(ctx, st.ID, fn); err != nil {
		return err
	}
	if st.State != service.StateCompleted {
		return fmt.Errorf("sweep %s ended %s: %s", st.ID, st.State, st.Error)
	}
	fmt.Fprintf(os.Stderr, "bmsubmit: %d/%d cells from store\n", st.StoreHits, st.Cells)
	os.Stdout.Write(st.Result)
	fmt.Println()
	return nil
}
