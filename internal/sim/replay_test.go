package sim

import (
	"bytes"
	"context"
	"testing"

	"bimodal/internal/cpu"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// TestReplayMatchesFresh records every core's stream on one scheme's Sim
// and replays the recordings on another scheme's pooled Sim (drawn a
// second time, so through Reset), which runs past them: its result bytes
// must equal a fresh Sim's, and so must its warm blob, sealed at the seam
// while its cores still hold replayed accesses (the seal rewinds each
// generator to its recording's start mark and re-draws). The cases cover a
// classic mix, an 8-core tenant workload, a recorder whose recording a
// replayer passes inside its warmup, and phases longer than one read-ahead
// chunk, where the recorder reads ahead past its full recording.
func TestReplayMatchesFresh(t *testing.T) {
	dc8 := &spec.WorkloadSpec{
		Cores:       8,
		Tenants:     []spec.TenantSpec{{Profile: "kvstore", Weight: 2}, {Profile: "webserve"}, {Profile: "scan"}},
		SharedPct:   5,
		SharedPages: 64,
	}
	cases := []struct {
		name             string
		mix              string
		workload         *spec.WorkloadSpec
		recorder, player string
		recOpts, opts    spec.Options
	}{
		{"classic", "Q7", nil, "alloy", "bimodal",
			spec.Options{AccessesPerCore: 300, WarmupPerCore: 400, CacheDivisor: 64},
			spec.Options{AccessesPerCore: 500, WarmupPerCore: 400, CacheDivisor: 64}},
		{"tenants", "", dc8, "bimodal", "alloy",
			spec.Options{AccessesPerCore: 200, WarmupPerCore: 300, CacheDivisor: 64},
			spec.Options{AccessesPerCore: 400, WarmupPerCore: 300, CacheDivisor: 64}},
		{"short recording", "Q1", nil, "lohhill", "bimodal",
			spec.Options{AccessesPerCore: 60, WarmupPerCore: 100, CacheDivisor: 64},
			spec.Options{AccessesPerCore: 700, WarmupPerCore: 900, CacheDivisor: 64}},
		{"long phases", "Q1", nil, "alloy", "footprint",
			spec.Options{AccessesPerCore: 2500, WarmupPerCore: 3000, CacheDivisor: 64},
			spec.Options{AccessesPerCore: 2200, WarmupPerCore: 2600, CacheDivisor: 64}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			canon := func(scheme string, o spec.Options, seed uint64) spec.RunSpec {
				rs, err := (spec.RunSpec{Scheme: scheme, Mix: tc.mix, Workload: tc.workload, Options: o, Seed: seed}).Canonical()
				if err != nil {
					t.Fatal(err)
				}
				return rs
			}
			recSpec, playSpec := canon(tc.recorder, tc.recOpts, 21), canon(tc.player, tc.opts, 21)
			mix, err := workloads.MixForSpec(playSpec)
			if err != nil {
				t.Fatal(err)
			}
			pool := NewRunPool(2)

			rec, err := ForSpec(pool, recSpec, mix, 1)
			if err != nil {
				t.Fatal(err)
			}
			recs := make([]cpu.Recording, mix.Cores())
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
			if err := rec.Warmup(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := rec.Measure(ctx); err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				if !recs[i].Done() {
					t.Fatalf("core %d: recording incomplete", i)
				}
			}

			fresh, err := ForSpec(nil, playSpec, mix, 1)
			if err != nil {
				t.Fatal(err)
			}
			wantBlob, wantRes := warmSnapMeasure(t, fresh)

			// A first draw under another seed makes the replaying Sim a
			// pooled one, Reset for the second.
			first, err := ForSpec(pool, canon(tc.player, tc.opts, 5), mix, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := first.Warmup(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := first.Measure(ctx); err != nil {
				t.Fatal(err)
			}
			pool.Put(first)
			for _, seal := range []bool{false, true} {
				play, err := ForSpec(pool, playSpec, mix, 1)
				if err != nil {
					t.Fatal(err)
				}
				if play != first {
					t.Fatal("the pool built a second Sim instead of resetting the first")
				}
				for i := range recs {
					if !play.Replay(i, &recs[i]) {
						t.Fatalf("core %d: Replay declined", i)
					}
				}
				var blob, res []byte
				if seal {
					blob, res = warmSnapMeasure(t, play)
				} else {
					if err := play.Warmup(ctx); err != nil {
						t.Fatal(err)
					}
					r, err := play.Measure(ctx)
					if err != nil {
						t.Fatal(err)
					}
					res = encodeResult(t, r)
					drawn, replayed := play.Draws()
					if replayed <= 0 || replayed >= drawn {
						t.Errorf("replayed %d of %d draws; want some of them, and the run to draw past its recordings", replayed, drawn)
					}
				}
				if !bytes.Equal(res, wantRes) {
					t.Errorf("seal %v: replayed result differs from fresh:\n got %s\nwant %s", seal, res, wantRes)
				}
				if seal && !bytes.Equal(blob, wantBlob) {
					t.Errorf("blob sealed on the replaying Sim differs from fresh (%d vs %d bytes)", len(blob), len(wantBlob))
				}
				pool.Put(play)
			}
		})
	}
}
