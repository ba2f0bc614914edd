package service

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"bimodal/internal/dramcache"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// schemeFields is the scheme state the experiment tables read off a live
// result and no result carries: the Bi-Modal global (X, Y) (Fig 10), the
// wasted probe bytes (ext-misspred) and the victim hits (ext-victim).
type schemeFields struct {
	global                  string
	wastedProbe, victimHits int64
}

func readScheme(s dramcache.Scheme) schemeFields {
	bm, ok := s.(*dramcache.BiModal)
	if !ok {
		return schemeFields{}
	}
	return schemeFields{bm.Core().GlobalState().String(), bm.WastedProbeBytes, bm.VictimHits}
}

// figureSpecs are the shapes of the figures' cells in small: ANTT cells
// (one with its non-ANTT twin), Table VI's prefetchers, Fig 9c's locator size, a Fig 12 geometry with
// its same-size Alloy twice, the extensions' miss predictor, victim
// buffer and datacenter mix, and two measured lengths of one prefix, for
// Alloy and for Bi-Modal.
func figureSpecs(t *testing.T) []spec.RunSpec {
	t.Helper()
	cell := func(scheme, mix string, mutate func(*spec.RunSpec)) spec.RunSpec {
		rs := spec.RunSpec{Scheme: scheme, Mix: mix, Seed: 7,
			Options: spec.Options{AccessesPerCore: 300, CacheDivisor: 64}}
		if mutate != nil {
			mutate(&rs)
		}
		c, err := rs.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	antt := func(rs *spec.RunSpec) { rs.Options.ANTT = true }
	fig12 := func(rs *spec.RunSpec) {
		rs.Options.ANTT = true
		rs.Options.CacheBytes = 4 << 20
		if rs.Scheme == "bimodal" {
			rs.Params = spec.Params{"set_bytes": 4096, "big_block": 1024, "min_big": 2, "threshold": 10}
		}
	}
	// The two lengths of the Bi-Modal pair run long enough to adapt the
	// global (X, Y) once, and its wasted probe bytes and victim hits
	// grow from the shorter to the longer.
	extensions := func(n int64) func(*spec.RunSpec) {
		return func(rs *spec.RunSpec) {
			rs.Options.AccessesPerCore, rs.Options.WarmupPerCore = n, 3000
			rs.Params = spec.Params{"miss_predictor": 1, "victim_entries": 256}
		}
	}
	specs := []spec.RunSpec{
		cell("alloy", "Q1", antt),
		cell("alloy", "Q1", nil),
		cell("bimodal", "Q1", antt),
		cell("bimodal", "Q7", func(rs *spec.RunSpec) { rs.Params = spec.Params{"way_locator_k": 12} }),
		cell("alloy", "Q2", fig12),
		cell("bimodal", "Q2", fig12),
		cell("alloy", "Q2", fig12),
		cell("bimodal", "Q1", func(rs *spec.RunSpec) { rs.Params = spec.Params{"miss_predictor": 1} }),
		cell("bimodal", "Q1", func(rs *spec.RunSpec) {
			rs.Options.AccessesPerCore = 3000
			rs.Params = spec.Params{"victim_entries": 256}
		}),
		cell("bimodal", "KV4", nil),
		cell("alloy", "Q7", func(rs *spec.RunSpec) { rs.Options.WarmupPerCore = 400 }),
		cell("alloy", "Q7", func(rs *spec.RunSpec) { rs.Options.AccessesPerCore, rs.Options.WarmupPerCore = 500, 400 }),
		cell("bimodal", "Q7", extensions(1000)),
		cell("bimodal", "Q7", extensions(5000)),
	}
	for _, n := range []int{1, 3} {
		for _, scheme := range []string{"alloy", "bimodal", "bimodal-bypass"} {
			specs = append(specs, cell(scheme, "Q3", func(rs *spec.RunSpec) { rs.Options.Prefetch, rs.Options.ANTT = n, true }))
		}
	}
	return specs
}

// TestRunSpecsEachMatchesFresh checks what RunSpecsEach hands each spec:
// exactly what a fresh, unpooled sim.ForSpec Sim returns from Warmup and
// Measure, every RunResult field but the scheme pointer, and the same
// scheme state at the call, once per spec, at one worker and at four.
func TestRunSpecsEachMatchesFresh(t *testing.T) {
	specs := figureSpecs(t)
	ctx := context.Background()
	type result struct {
		res    sim.RunResult
		scheme schemeFields
	}
	want := make([]result, len(specs))
	for k, rs := range specs {
		mix, err := workloads.MixForSpec(rs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.ForSpec(nil, rs, mix, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Warmup(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := s.Measure(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = result{res, readScheme(res.Scheme)}
		want[k].res.Scheme = nil
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := make([]result, len(specs))
			calls := make([]atomic.Int32, len(specs))
			err := RunSpecsEach(ctx, specs, workers, func(k int, res sim.RunResult) error {
				calls[k].Add(1)
				got[k] = result{res, readScheme(res.Scheme)}
				got[k].res.Scheme = nil
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for k, rs := range specs {
				if n := calls[k].Load(); n != 1 {
					t.Errorf("spec %d (%s %s): %d calls, want 1", k, rs.Mix, rs.Scheme, n)
				}
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Errorf("spec %d (%s %s %+v %v): RunSpecsEach handed\n%+v\nwant\n%+v", k, rs.Mix, rs.Scheme, rs.Options, rs.Params, got[k], want[k])
				}
			}
		})
	}
}
