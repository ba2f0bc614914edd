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
// batch serially and with 2 and NumCPU workers and asserts the RunResults
// are identical — the engine's core guarantee.
func TestParallelRunResultsIdenticalToSerial(t *testing.T) {
	mixes := Options{MaxMixes: 3}.mixes(4)
	o := Options{AccessesPerCore: 1200, Seed: 1}
	runAll := func(workers int) []sim.RunResult {
		t.Helper()
		b := batch[sim.RunResult]{keep: func(res sim.RunResult) sim.RunResult {
			res.Scheme = nil // live only inside keep; results must not depend on it
			return res
		}}
		for _, mix := range mixes {
			for _, scheme := range []string{"bimodal", "alloy"} {
				rs := o.cellSpec(scheme, mix.Name)
				rs.Options.CacheDivisor = 8
				b.add(mix.Name+" "+scheme, rs)
			}
		}
		res, err := b.run(context.Background(), Options{Workers: workers}, "det")
		if err != nil {
			t.Fatal(err)
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
// tables at several worker counts and asserts byte-identical renderings:
// a report batch (fig8b), an ANTT batch (table6), fig12, whose identical
// Alloy cells read one run, ext-victim, whose keep reads scheme state, and
// a stream study (fig1). Under -short, fig12 and ext-victim run at a tiny
// scale, serially and on 4 workers, so that the race detector sees keeps
// running on concurrent group leaders.
func TestTablesByteIdenticalAcrossWorkerCounts(t *testing.T) {
	tiny := Options{AccessesPerCore: 300, Seed: 1, MaxMixes: 1}
	type tc struct {
		id      string
		o       Options
		workers []int
	}
	cases := []tc{{"fig12", tiny, []int{1, 4}}, {"ext-victim", tiny, []int{1, 4}}}
	if !testing.Short() {
		for _, id := range []string{"fig8b", "table6", "fig12", "ext-victim", "fig1"} {
			cases = append(cases, tc{id, detOptions(0), []int{1, 2, runtime.NumCPU()}})
		}
	}
	for _, c := range cases {
		e, err := ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		var serial string
		for _, workers := range c.workers {
			o := c.o
			o.Workers = workers
			tbl, err := e.Run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.id, workers, err)
			}
			if workers == 1 {
				serial = tbl.String()
				continue
			}
			if got := tbl.String(); got != serial {
				t.Errorf("%s: workers=%d output differs from serial\nserial:\n%s\nparallel:\n%s", c.id, workers, serial, got)
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
