package bench

import (
	"context"
	"testing"
	"time"

	"bimodal/internal/sim"
	"bimodal/internal/workloads"
)

// runSweepColdWarmup is the reference SweepSharedRun is measured against:
// the same sweep with every cell warming up from cold on a Sim of its own.
func runSweepColdWarmup() error {
	ctx := context.Background()
	for _, rs := range warmSweepSpecs() {
		mix, err := workloads.MixForSpec(rs)
		if err != nil {
			return err
		}
		s, err := sim.ForSpec(nil, rs, mix, 1)
		if err != nil {
			return err
		}
		if err := s.Warmup(ctx); err != nil {
			return err
		}
		if _, err := s.Measure(ctx); err != nil {
			return err
		}
	}
	return nil
}

// TestWarmSweepBeatsColdWarmup is warm sharing's performance contract: a
// 10-cell same-prefix sweep read off one warm run (warm once, measure
// once) must beat the cold path (warm ten times) by at least 2x. The true
// ratio approaches the cell count when warmup dominates, so 2x leaves
// generous headroom for timer noise; each path takes the best of three
// runs to shed scheduling outliers.
func TestWarmSweepBeatsColdWarmup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short")
	}
	best := func(run func() error) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	warm := best(runSweepSharedRun)
	cold := best(runSweepColdWarmup)
	t.Logf("cold %v, warm %v (%.1fx)", cold, warm, float64(cold)/float64(warm))
	if cold < 2*warm {
		t.Errorf("warm sweep only %.2fx faster than cold (cold %v, warm %v); want >= 2x",
			float64(cold)/float64(warm), cold, warm)
	}
}
