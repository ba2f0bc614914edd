package service

import (
	"context"
	"testing"

	"bimodal/internal/sim"
	"bimodal/internal/spec"
)

// schemesSweep is the figures' shape in small: alloy and bimodal over Q1
// and Q7 at one seed, each at two measured lengths after one warmup, so
// four warm-prefix groups. Q1 and Q7 both run mcf on core 0, so the
// groups draw 7 distinct core streams among their 16 cores.
func schemesSweep(t *testing.T) []spec.RunSpec {
	t.Helper()
	var specs []spec.RunSpec
	for _, mix := range []string{"Q1", "Q7"} {
		for _, scheme := range []string{"alloy", "bimodal"} {
			for _, n := range []int64{200, 300} {
				rs, err := (spec.RunSpec{Scheme: scheme, Mix: mix, Seed: 17,
					Options: spec.Options{AccessesPerCore: n, WarmupPerCore: 400, CacheDivisor: 64}}).Canonical()
				if err != nil {
					t.Fatal(err)
				}
				specs = append(specs, rs)
			}
		}
	}
	return specs
}

// TestSweepSharesCoreStreams runs the schemes sweep's groups in order,
// as a sweep at fan-out 1 does: the first group to draw each of the 7
// distinct streams records it, the 9 later draws replay it, and every
// cell's bytes equal its spec's RunCellSpec alone. The server's stream
// counters account for the replayed draws. The same sweep submitted to a
// server stores the same bytes.
func TestSweepSharesCoreStreams(t *testing.T) {
	specs := schemesSweep(t)
	s, c := newTestServer(t, Config{Workers: 1, SweepFanout: 1})
	ctx := context.Background()
	cells, err := SweepRequest{Specs: specs}.cells(0)
	if err != nil {
		t.Fatal(err)
	}
	misses := make([]int, len(cells))
	for i := range misses {
		misses[i] = i
	}
	p, err := planWarm(cells, misses)
	if err != nil {
		t.Fatal(err)
	}
	raws := make([][]byte, len(cells))
	each := func(k int, res sim.RunResult) (err error) {
		raws[k], err = marshalCell(specs[k].Scheme, res)
		return err
	}
	for k := range misses {
		if _, err := p.run(ctx, k, &s.shareStats, each); err != nil {
			t.Fatal(err)
		}
	}
	var recorded, replayed int
	for _, st := range p.streams {
		switch st.act {
		case recordStream:
			recorded++
		case replayStream:
			replayed++
		}
	}
	if len(p.groups) != 4 || recorded != 7 || replayed != 9 {
		t.Errorf("%d groups recorded %d core streams and replayed %d, want 4, 7 and 9", len(p.groups), recorded, replayed)
	}
	p.release()
	gen, rep := s.mStreamGenerated.Value(), s.mStreamReplayed.Value()
	if gen <= 0 || rep <= 0 {
		t.Errorf("stream counters: %d generated, %d replayed; want both positive", gen, rep)
	}
	t.Logf("%d of %d draws replayed", rep, gen+rep)
	for i, rs := range specs {
		alone, err := RunCellSpec(ctx, rs)
		if err != nil {
			t.Fatal(err)
		}
		if string(raws[i]) != string(alone) {
			t.Errorf("%s %s %d: bytes differ from RunCellSpec:\nshared: %s\nalone:  %s", rs.Mix, rs.Scheme, rs.Options.AccessesPerCore, raws[i], alone)
		}
	}

	if got := sweepOrigins(t, c, SweepRequest{Specs: specs}); got["run"] != 4 || got["warm"] != 4 {
		t.Errorf("origins = %v, want 4 run + 4 warm", got)
	}
	checkColdBytes(t, c, specs)
}

// TestSweepSharesCoreStreamsFanout submits the schemes sweep at fan-out 4,
// so groups run while the recordings they could replay are still being
// drawn: a group replays only what has been recorded and generates the
// rest, and every stored cell still equals its spec's RunCellSpec. Run it
// with -race.
func TestSweepSharesCoreStreamsFanout(t *testing.T) {
	specs := schemesSweep(t)
	s, c := newTestServer(t, Config{Workers: 1, SweepFanout: 4})
	if got := sweepOrigins(t, c, SweepRequest{Specs: specs}); got["run"] != 4 || got["warm"] != 4 {
		t.Errorf("origins = %v, want 4 run + 4 warm", got)
	}
	if s.mStreamGenerated.Value() <= 0 {
		t.Error("no stream accesses generated")
	}
	checkColdBytes(t, c, specs)
}
