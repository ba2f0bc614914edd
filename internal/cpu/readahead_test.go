package cpu

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bimodal/internal/snapshot"
	"bimodal/internal/trace"
)

// hideFill forwards Next, Name and Reset only, so the engine draws the
// wrapped generator inline.
type hideFill struct{ trace.Generator }

// raGens builds a slow and a fast core, so the fast one reads ahead into
// a long uncounted tail.
func raGens(inline bool) []trace.Generator {
	gens := []trace.Generator{
		trace.NewSynthetic(trace.MustProfile("twolf"), 0, 3),
		trace.NewSynthetic(trace.MustProfile("lbm"), 1<<32, 4),
	}
	if inline {
		for i, g := range gens {
			gens[i] = hideFill{g}
		}
	}
	return gens
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("%s: recovered %v, want a panic containing %q", what, r, want)
		}
	}()
	f()
}

// TestReleaseReadAheadLeavesEngineStale hands read-ahead back while the
// generators are ahead: phases and snapshots must panic until Reset, after
// which the engine replays what a fresh one does.
func TestReleaseReadAheadLeavesEngineStale(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("no helpers at GOMAXPROCS 1, so read-ahead never passes the guaranteed region")
	}
	e := NewEngine(&fakeScheme{latency: 40}, raGens(false), DefaultCoreConfig(), nil)
	run(t, e, 3*chunkLen)
	for i, c := range e.cores {
		if !c.ra.ahead() {
			t.Fatalf("core %d is not ahead after a phase that read into its tail", i)
		}
	}
	e.ReleaseReadAhead()
	const stale = "handed back ahead"
	mustPanic(t, "WarmupContext", stale, func() { e.WarmupContext(context.Background(), 10) })
	mustPanic(t, "SnapshotState", stale, func() { e.SnapshotState(snapshot.NewWriter()) })
	if !e.Reset([]uint64{3, 4}) {
		t.Fatal("Reset declined")
	}
	got := run(t, e, 3*chunkLen)
	e.ReleaseReadAhead()
	want := run(t, NewEngine(&fakeScheme{latency: 40}, raGens(true), DefaultCoreConfig(), nil), 3*chunkLen)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after Reset: %+v, want %+v", got, want)
	}
}
