package sim

import (
	"bytes"
	"context"
	"testing"

	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// dc8Workload is e2ebench's dc8-tenants workload: 8 cores weaving three
// tenants over a shared hot region.
func dc8Workload() *spec.WorkloadSpec {
	return &spec.WorkloadSpec{
		Cores:       8,
		Tenants:     []spec.TenantSpec{{Profile: "kvstore", Weight: 2}, {Profile: "webserve"}, {Profile: "scan"}},
		SharedPct:   5,
		SharedPages: 64,
	}
}

// TestMeasureEachMatchesSeparateRuns is MeasureEach's contract: one warm
// Sim measured once toward quotas 100, 250 (with ANTT) and 1000 reports,
// at each, exactly what a fresh Sim built for that quota alone reports:
// PerCore, PerTenant, Report, Energy and ANTT. It covers every registered
// scheme on Q1 and Q7 and the variants TestRestoreThenRunGolden adds (miss
// predictor and victim buffer, prefetcher), plus the 8-core multi-tenant
// workload.
func TestMeasureEachMatchesSeparateRuns(t *testing.T) {
	type case_ struct {
		name     string
		scheme   string
		params   spec.Params
		prefetch int
		mix      string
		workload *spec.WorkloadSpec
	}
	var cases []case_
	for _, name := range spec.Names() {
		for _, mix := range []string{"Q1", "Q7"} {
			cases = append(cases, case_{name: name + "/" + mix, scheme: name, mix: mix})
		}
	}
	cases = append(cases,
		case_{name: "bimodal+misspred+victims/Q1", scheme: "bimodal", mix: "Q1",
			params: spec.Params{"miss_predictor": 1, "victim_entries": 8}},
		case_{name: "bimodal+prefetch/Q7", scheme: "bimodal", mix: "Q7", prefetch: 2},
		case_{name: "bimodal/dc8", scheme: "bimodal", workload: dc8Workload()},
	)
	quotas := []Quota{{Accesses: 100}, {Accesses: 250, ANTT: true}, {Accesses: 1000}}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			at := func(q Quota) spec.RunSpec {
				rs, err := spec.RunSpec{Scheme: tc.scheme, Params: tc.params, Mix: tc.mix, Workload: tc.workload, Seed: 3,
					Options: spec.Options{AccessesPerCore: q.Accesses, WarmupPerCore: 500, CacheDivisor: 64,
						Prefetch: tc.prefetch, ANTT: q.ANTT}}.Canonical()
				if err != nil {
					t.Fatal(err)
				}
				return rs
			}
			mix, err := workloads.MixForSpec(at(quotas[0]))
			if err != nil {
				t.Fatal(err)
			}
			s, err := ForSpec(nil, at(quotas[0]), mix, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Warmup(ctx); err != nil {
				t.Fatal(err)
			}
			var got []RunResult
			err = s.MeasureEach(ctx, quotas, func(k int, res RunResult) error {
				if k != len(got) {
					t.Fatalf("capture %d arrived after %d", k, len(got))
				}
				got = append(got, res)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(quotas) {
				t.Fatalf("%d captures, want %d", len(got), len(quotas))
			}
			for k, q := range quotas {
				fresh, err := ForSpec(nil, at(q), mix, 1)
				if err != nil {
					t.Fatal(err)
				}
				want := runSim(t, fresh)
				// Measure is MeasureEach too, so pin its capture to the
				// engine's own counters at the end of the run as well.
				final := want
				final.PerCore = cpu.DeltaResults(fresh.eng.CumulativeResults(), fresh.pre)
				final.PerTenant = cpu.DeltaTenants(fresh.eng.TenantTotals(), fresh.preT)
				final.Report = fresh.eng.Scheme().Report()
				if g, w := viewJSON(t, want), viewJSON(t, final); !bytes.Equal(g, w) {
					t.Errorf("quota %d: Measure's capture differs from the engine's final counters\n got: %s\nwant: %s", q.Accesses, g, w)
				}
				if g, w := viewJSON(t, got[k]), viewJSON(t, want); !bytes.Equal(g, w) {
					t.Errorf("quota %d: read off the shared run\n got: %s\nwant: %s", q.Accesses, g, w)
				}
				if got[k].ANTT != want.ANTT || (want.ANTT == 0) == q.ANTT {
					t.Errorf("quota %d: ANTT %v, separate run %v (asked: %v)", q.Accesses, got[k].ANTT, want.ANTT, q.ANTT)
				}
			}
		})
	}
}

// statsProbe is a scheme that reads its own statistics after every 97th
// access it serves, as an interval series read mid-run would.
type statsProbe struct {
	dramcache.Scheme
	n int
}

func (p *statsProbe) Access(req dramcache.Request, now int64) dramcache.Result {
	r := p.Scheme.Access(req, now)
	if p.n++; p.n%97 == 0 {
		p.Scheme.Report()
	}
	return r
}

// TestReportDoesNotPerturbRun pins that reading a scheme's statistics
// mid-run changes nothing: for every registered scheme, a run whose scheme
// calls Report after every 97th access gives the RunResult of a run that
// never does. Report flushes every queued write in its view of the
// controllers, so this holds only because Controller.Stats flushes a
// scratch copy, never the controller.
func TestReportDoesNotPerturbRun(t *testing.T) {
	for _, name := range spec.Names() {
		t.Run(name, func(t *testing.T) {
			rs := goldenSpec(t, name, nil, 0)
			mix := workloads.MustByName(rs.Mix)
			factory, err := FactoryForSpec(rs, mix.Cores())
			if err != nil {
				t.Fatal(err)
			}
			o := OptionsForSpec(rs)
			probed := func(cfg dramcache.Config) dramcache.Scheme { return &statsProbe{Scheme: factory(cfg)} }
			want := viewJSON(t, run(t, mix, factory, o))
			if got := viewJSON(t, run(t, mix, probed, o)); !bytes.Equal(got, want) {
				t.Errorf("reading statistics mid-run changed the result:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestMeasureEachAllocs pins what a run costs on a pooled warm Sim: a
// Warmup+Measure cycle allocates the result's PerCore and, on the 8-core
// multi-tenant workload, its PerTenant (Warmup refills the Sim's own
// baselines), and a two-quota MeasureEach no more than Measure plus the
// slices of its extra capture. Both cycles draw the Sim, warm it up and
// put it back.
func TestMeasureEachAllocs(t *testing.T) {
	q1 := goldenSpec(t, "bimodal", nil, 0)
	dc8 := q1
	dc8.Mix, dc8.Workload = "", dc8Workload()
	dc8, err := dc8.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rs   spec.RunSpec
		want float64 // the result's slices
	}{
		{"Q1", q1, 1},
		{"dc8", dc8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := tc.rs
			mix, err := workloads.MixForSpec(rs)
			if err != nil {
				t.Fatal(err)
			}
			pool := NewRunPool(1)
			ctx := context.Background()
			cycle := func(measure func(s *Sim) error) func() {
				return func() {
					s, err := ForSpec(pool, rs, mix, 1)
					if err == nil {
						err = s.Warmup(ctx)
					}
					if err == nil {
						err = measure(s)
					}
					if err != nil {
						t.Fatal(err)
					}
					pool.Put(s)
				}
			}
			one := cycle(func(s *Sim) error {
				_, err := s.Measure(ctx)
				return err
			})
			quotas := []Quota{{Accesses: 400}, {Accesses: rs.Options.AccessesPerCore}}
			two := cycle(func(s *Sim) error {
				return s.MeasureEach(ctx, quotas, func(int, RunResult) error { return nil })
			})
			one() // builds the pooled Sim and sizes its buffers
			two()
			m, e := testing.AllocsPerRun(10, one), testing.AllocsPerRun(10, two)
			t.Logf("Measure cycle %v allocs, two-quota MeasureEach cycle %v", m, e)
			if m != tc.want {
				t.Errorf("Warmup+Measure cycle allocates %v objects, want %v (the result's slices)", m, tc.want)
			}
			if e > 2*m {
				t.Errorf("two-quota MeasureEach cycle allocates %v objects, Measure's %v: want at most one capture more", e, m)
			}
		})
	}
}
