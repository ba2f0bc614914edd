package cpu

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bimodal/internal/trace"
)

// recordGens builds the generators of one stream set: two classic
// benchmark cores and a core weaving three tenants, seeded per core.
func recordGens(seed uint64) []trace.Generator {
	tenants := []trace.TenantStream{
		{Prof: trace.MustProfile("kvstore"), Weight: 2},
		{Prof: trace.MustProfile("webserve"), Weight: 1},
		{Prof: trace.MustProfile("scan"), Weight: 1},
	}
	return []trace.Generator{
		trace.NewSynthetic(trace.MustProfile("mcf"), 0, seed),
		trace.NewSynthetic(trace.MustProfile("lbm"), 1<<32, seed+1),
		trace.NewInterleaver("dc", tenants, 2<<32, 0.05, 64, seed+2),
	}
}

// phases runs a warmup phase and a measured phase on e, then ends the run
// as sim.Sim does.
func phases(t *testing.T, e *Engine, warmup, measure int64) {
	t.Helper()
	runMeasured(t, e, warmup, measure)
	e.ReleaseReadAhead()
}

// TestReplayMatchesFreshGeneration records every core's stream on one
// engine and replays the recordings on a second, pooled one (it ran and was
// Reset first) against a scheme with other latencies, so its cores draw
// more or fewer accesses than the recorder's did and run past the
// recordings. The replaying engine must issue exactly the requests, at
// exactly the times, and report exactly the results of a fresh engine run
// the same way, and its generators must stand where fresh ones would: a
// Reset and a second fresh run match too. The cuts cover recordings that
// end inside the warmup's tail, across the seam, at the end of a short run,
// and a full chunk cut inside a phase longer than chunkLen, where the
// recorder reads ahead past its recording and the replayer's read-ahead
// takes over after it.
func TestReplayMatchesFreshGeneration(t *testing.T) {
	cases := []struct {
		name                  string
		recWarm, recMeasure   int64 // the recorder's run
		playWarm, playMeasure int64 // the replayer's run
	}{
		{"short recording, longer replay", 100, 50, 400, 300},
		{"same run", 400, 300, 400, 300},
		{"shorter replay", 700, 600, 400, 200},
		{"full chunk inside the measured phase", 1200, 1500, 1000, 2000},
		{"long phases", 3 * chunkLen, chunkLen, 2*chunkLen + 100, 3 * chunkLen},
	}
	seeds := []uint64{7, 8, 9}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewEngine(&fakeScheme{latency: 90}, recordGens(7), DefaultCoreConfig(), nil)
			recs := make([]Recording, len(seeds))
			defer func() {
				for i := range recs {
					recs[i].Release()
				}
			}()
			for i := range recs {
				if !rec.Record(i, &recs[i]) {
					t.Fatalf("core %d: Record declined", i)
				}
			}
			phases(t, rec, tc.recWarm, tc.recMeasure)
			for i := range recs {
				if !recs[i].Done() || recs[i].n == 0 {
					t.Fatalf("core %d: recording done %v with %d accesses", i, recs[i].Done(), recs[i].n)
				}
			}

			fresh := &fakeScheme{latency: 40}
			fe := NewEngine(fresh, recordGens(7), DefaultCoreConfig(), nil)
			want := runMeasured(t, fe, tc.playWarm, tc.playMeasure)
			fe.ReleaseReadAhead()
			wantDrawn, _ := fe.Draws()

			play := &fakeScheme{latency: 40}
			pe := NewEngine(play, recordGens(1), DefaultCoreConfig(), nil)
			phases(t, pe, 300, 200)
			if !pe.Reset(seeds) {
				t.Fatal("Reset declined")
			}
			play.requests, play.times = nil, nil
			for i := range recs {
				if !pe.Replay(i, &recs[i]) {
					t.Fatalf("core %d: Replay declined", i)
				}
			}
			got := runMeasured(t, pe, tc.playWarm, tc.playMeasure)
			drawn, replayed := pe.Draws()
			pe.ReleaseReadAhead()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("results %+v, want %+v", got, want)
			}
			if !reflect.DeepEqual(play.requests, fresh.requests) || !reflect.DeepEqual(play.times, fresh.times) {
				t.Errorf("replaying engine issued %d requests that differ from the fresh engine's %d", len(play.requests), len(fresh.requests))
			}
			if drawn != wantDrawn {
				t.Errorf("drew %d accesses, the fresh engine %d", drawn, wantDrawn)
			}
			if replayed <= 0 || replayed > drawn {
				t.Errorf("replayed %d of %d draws", replayed, drawn)
			}
			var recorded int64
			for i := range recs {
				recorded += int64(recs[i].n)
			}
			if replayed > recorded {
				t.Errorf("replayed %d accesses of recordings holding %d", replayed, recorded)
			}

			// The replayed recordings are untouched, and the engine, once
			// Reset, runs as a fresh one does.
			if !pe.Reset(seeds) {
				t.Fatal("Reset declined")
			}
			play.requests, play.times = nil, nil
			fresh.requests, fresh.times = nil, nil
			fe = NewEngine(fresh, recordGens(7), DefaultCoreConfig(), nil)
			if !reflect.DeepEqual(runMeasured(t, pe, 300, 500), runMeasured(t, fe, 300, 500)) || !reflect.DeepEqual(play.requests, fresh.requests) {
				t.Error("after Reset the replaying engine runs differently from a fresh one")
			}
			pe.ReleaseReadAhead()
			fe.ReleaseReadAhead()
		})
	}
}

// TestReplayConcurrently replays one set of recordings on four engines at
// once, each against its own scheme latency, under -race: a complete
// recording is read-only.
func TestReplayConcurrently(t *testing.T) {
	seeds := []uint64{7, 8, 9}
	rec := NewEngine(&fakeScheme{latency: 70}, recordGens(7), DefaultCoreConfig(), nil)
	recs := make([]Recording, len(seeds))
	for i := range recs {
		rec.Record(i, &recs[i])
	}
	phases(t, rec, 2*chunkLen, 500)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := int64(20 + 30*k)
			ctx := context.Background()
			play, fresh := &fakeScheme{latency: lat}, &fakeScheme{latency: lat}
			pe := NewEngine(play, recordGens(7), DefaultCoreConfig(), nil)
			for i := range recs {
				pe.Replay(i, &recs[i])
			}
			fe := NewEngine(fresh, recordGens(7), DefaultCoreConfig(), nil)
			for _, e := range []*Engine{pe, fe} {
				pre, err := e.WarmupContext(ctx, 1500)
				if err == nil {
					_, err = e.MeasureAfterWarmupContext(ctx, 2*chunkLen, pre)
				}
				e.ReleaseReadAhead()
				if err != nil {
					errs[k] = err
					return
				}
			}
			if !reflect.DeepEqual(play.requests, fresh.requests) {
				errs[k] = fmt.Errorf("engine %d: replayed requests differ from fresh ones", k)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for i := range recs {
		recs[i].Release()
	}
}

// TestRecordingAbandoned checks what ends a recording early: a phase
// cancelled while the core records leaves the recording incomplete, and the
// engine, once Reset, runs as a fresh one does. Replaying an incomplete
// recording, or recording on an engine that has run, panics.
func TestRecordingAbandoned(t *testing.T) {
	seeds := []uint64{7, 8, 9}
	e := NewEngine(&fakeScheme{latency: 50}, recordGens(7), DefaultCoreConfig(), nil)
	recs := make([]Recording, len(seeds))
	defer func() {
		for i := range recs {
			recs[i].Release()
		}
	}()
	for i := range recs {
		e.Record(i, &recs[i])
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The warmup's guaranteed region fits in the recording's chunk with
	// room to spare, so the recording is still in progress when the phase
	// stops at its first context check (a full chunk would have completed
	// it before).
	if _, err := e.WarmupContext(ctx, 500); err == nil {
		t.Fatal("a cancelled warmup succeeded")
	}
	e.ReleaseReadAhead()
	for i := range recs {
		if recs[i].Done() {
			t.Errorf("core %d: a recording whose phase was cancelled is complete", i)
		}
	}
	mustPanic(t, "Replay", "not complete", func() { e.Replay(0, &recs[0]) })
	mustPanic(t, "Record", "run no phase", func() { e.Record(0, &recs[0]) })
	if !e.Reset(seeds) {
		t.Fatal("Reset declined")
	}
	fresh := NewEngine(&fakeScheme{latency: 50}, recordGens(7), DefaultCoreConfig(), nil)
	if got, want := runMeasured(t, e, 500, 500), runMeasured(t, fresh, 500, 500); !reflect.DeepEqual(got, want) {
		t.Errorf("after an abandoned recording and Reset: %+v, want %+v", got, want)
	}
}
