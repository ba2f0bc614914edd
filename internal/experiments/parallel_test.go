package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bimodal/internal/sim"
)

// detOptions shrinks the Q-mix table runs enough to repeat at several
// worker counts.
func detOptions(workers int) Options {
	return Options{
		AccessesPerCore: 600,
		StreamAccesses:  12_000,
		Seed:            1,
		MaxMixes:        2,
		Workers:         workers,
	}
}

// TestParallelRunResultsIdenticalToSerial runs a small Q-mix × scheme
// table through the engine serially and with 1, 2 and NumCPU workers and
// asserts the RunResults are identical — the engine's core guarantee.
func TestParallelRunResultsIdenticalToSerial(t *testing.T) {
	mixes := Options{MaxMixes: 3}.mixes(4)
	o := Options{AccessesPerCore: 1200, Seed: 1}
	keep := func(res sim.RunResult, _ float64) sim.RunResult { return res }
	runAll := func(workers int) []sim.RunResult {
		t.Helper()
		cells := make([]cell[sim.RunResult], 0, 2*len(mixes))
		for _, mix := range mixes {
			for _, scheme := range []string{"bimodal", "alloy"} {
				rs := o.cellSpec(scheme, mix.Name)
				rs.Options.CacheDivisor = 8
				cells = append(cells, specCell(mix.Name+" "+scheme, o, rs, keep))
			}
		}
		res, err := runCells(context.Background(), Options{Workers: workers}, "det", cells)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			res[i].Scheme = nil // instances differ by pointer; results must not
		}
		return res
	}
	serial := runAll(1)
	for _, workers := range []int{2, runtime.NumCPU()} {
		got := runAll(workers)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial))
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], got[i]) {
				t.Errorf("workers=%d cell %d: parallel result differs from serial\nserial: %+v\nparallel: %+v",
					workers, i, serial[i].Report, got[i].Report)
			}
		}
	}
}

// TestTablesByteIdenticalAcrossWorkerCounts regenerates full experiment
// tables (one Run-based, one ANTT-based, one stream-based) at several
// worker counts and asserts byte-identical renderings.
func TestTablesByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	for _, id := range []string{"fig8b", "table6", "fig1"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var serial string
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			tbl, err := e.Run(context.Background(), detOptions(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			if workers == 1 {
				serial = tbl.String()
				continue
			}
			if got := tbl.String(); got != serial {
				t.Errorf("%s: workers=%d output differs from serial\nserial:\n%s\nparallel:\n%s", id, workers, serial, got)
			}
		}
	}
}

// TestCancelledContextStopsExperiment verifies an experiment returns
// ctx.Err() promptly instead of completing when its context is cancelled.
func TestCancelledContextStopsExperiment(t *testing.T) {
	// Big enough that a full run would take seconds.
	o := Options{AccessesPerCore: 5_000_000, StreamAccesses: 500_000_000, Seed: 1, MaxMixes: 1, Workers: 2}
	for _, id := range []string{"fig8b", "fig1"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		var tbl interface{ NumRows() int }
		var rerr error
		go func() { tbl, rerr = e.Run(ctx, o); close(done) }()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not stop within 10s of cancellation", id)
		}
		if !errors.Is(rerr, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", id, rerr)
		}
		if tbl != nil && !reflect.ValueOf(tbl).IsNil() {
			t.Errorf("%s: cancelled run returned a table", id)
		}
	}
}

// TestProgressLinesEmitted checks the per-cell progress/timing output.
func TestProgressLinesEmitted(t *testing.T) {
	var buf bytes.Buffer
	o := detOptions(2)
	o.Progress = &buf
	e, err := ByID("fig8b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines != 6 { // 2 mixes x 3 schemes
		t.Errorf("progress lines = %d, want 6:\n%s", lines, out)
	}
	if !strings.Contains(out, "fig8b [6/6]") {
		t.Errorf("missing final progress counter:\n%s", out)
	}
}
