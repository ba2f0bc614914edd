package sim

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"bimodal/internal/cpu"
	"bimodal/internal/snapshot"
	"bimodal/internal/spec"
	"bimodal/internal/telemetry"
	"bimodal/internal/trace"
	"bimodal/internal/workloads"
)

// inlineGen hides a generator's Fill, so the engine draws it inline,
// while forwarding everything else the engine and the snapshot seam use.
type inlineGen struct{ trace.Generator }

func (g inlineGen) Tenants() int {
	if tc, ok := g.Generator.(interface{ Tenants() int }); ok {
		return tc.Tenants()
	}
	return 1
}

func (g inlineGen) SnapshotState(w *snapshot.Writer) {
	g.Generator.(snapshot.Snapshotter).SnapshotState(w)
}

func (g inlineGen) RestoreState(r *snapshot.Reader) {
	g.Generator.(snapshot.Snapshotter).RestoreState(r)
}

// newInlineSim is NewSim with every generator wrapped in inlineGen.
func newInlineSim(mix workloads.Mix, factory Factory, o Options) *Sim {
	o = o.normalize()
	gens := mix.Generators(o.Seed)
	for i, g := range gens {
		gens[i] = inlineGen{g}
	}
	return &Sim{mix: mix, o: o, eng: cpu.NewEngine(factory(ConfigFor(mix, o)), gens, o.CoreCfg, nil)}
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on, so a phase stops at an exact context check.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// warmSnapMeasure runs warmup, seals the warmup blob and runs the measured
// window, returning the blob and the encoded result.
func warmSnapMeasure(t *testing.T, s *Sim) (blob, res []byte) {
	t.Helper()
	if err := s.Warmup(context.Background()); err != nil {
		t.Errorf("warmup: %v", err)
		return nil, nil
	}
	blob = s.Snapshot("readahead")
	r, err := s.Measure(context.Background())
	if err != nil {
		t.Errorf("measure: %v", err)
		return nil, nil
	}
	return blob, encodeResult(t, r)
}

// TestReadAheadMatchesInline checks trace read-ahead changes no byte: for
// every registered scheme on Q1, Q7, a DC mix and the dc8 tenant spec, an
// engine reading ahead seals the same warmup blob and reports the same
// result as one whose generators hide Fill. The read-ahead engine first
// has its warmup cancelled while a fill is in flight and is then Reset; it
// runs warmup and measure straight through, carrying read-ahead across the
// seam, and then, after another Reset, seals the blob between them, which
// rewinds its generators. The two engines run at once, so -race sees
// helpers serving both. The blob restored into a fresh engine measures the
// same again. With helpers (GOMAXPROCS > 1) the test fails unless some
// engine carried read-ahead across the seam and some snapshot rewound.
func TestReadAheadMatchesInline(t *testing.T) {
	dc8, err := workloads.FromSpec(spec.WorkloadSpec{
		Cores:       8,
		Tenants:     []spec.TenantSpec{{Profile: "kvstore", Weight: 2}, {Profile: "webserve"}, {Profile: "scan"}},
		SharedPct:   5,
		SharedPages: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	mixes := []workloads.Mix{workloads.MustByName("Q1"), workloads.MustByName("Q7"), workloads.MustByName("DC4"), dc8}
	// Both phases span several chunks; -short keeps two per phase.
	o := Options{AccessesPerCore: 3 * 2048, Seed: 11, CacheBytes: 1 << 20}
	if testing.Short() {
		o.AccessesPerCore = 2048 + 512
	}
	carried := telemetry.Default.Counter("bimodal_readahead_carried_total")
	rewound := telemetry.Default.Counter("bimodal_readahead_rewinds_total")
	carried0, rewound0 := carried.Value(), rewound.Value()
	for _, name := range spec.Names() {
		factory := paperFactory(t, name)
		for _, mix := range mixes {
			t.Run(name+"/"+mix.Name, func(t *testing.T) {
				var raStraight, raBlob, raRes []byte
				done := make(chan struct{})
				go func() {
					defer close(done)
					s := NewSim(mix, factory, o)
					if err := s.Warmup(&cancelAfter{context.Background(), 0}); err == nil {
						t.Error("warmup with a cancelled context succeeded")
						return
					}
					if !s.Reset(mix, factory, o) {
						t.Error("Reset after a cancelled phase declined")
						return
					}
					if err := s.Warmup(context.Background()); err != nil {
						t.Errorf("warmup: %v", err)
						return
					}
					r, err := s.Measure(context.Background())
					if err != nil {
						t.Errorf("measure: %v", err)
						return
					}
					raStraight = encodeResult(t, r)
					if !s.Reset(mix, factory, o) {
						t.Error("Reset after a measured run declined")
						return
					}
					raBlob, raRes = warmSnapMeasure(t, s)
				}()
				inBlob, inRes := warmSnapMeasure(t, newInlineSim(mix, factory, o))
				<-done
				if t.Failed() {
					return
				}
				if !bytes.Equal(raStraight, inRes) {
					t.Errorf("straight-through result differs between read-ahead and inline generation:\n%s\n%s", raStraight, inRes)
				}
				if !bytes.Equal(raBlob, inBlob) {
					t.Errorf("warmup blob differs between read-ahead and inline generation")
				}
				if !bytes.Equal(raRes, inRes) {
					t.Errorf("result differs between read-ahead and inline generation:\n%s\n%s", raRes, inRes)
				}
				s := NewSim(mix, factory, o)
				if err := s.Restore(raBlob, "readahead"); err != nil {
					t.Fatalf("restore: %v", err)
				}
				r, err := s.Measure(context.Background())
				if err != nil {
					t.Fatalf("measure after restore: %v", err)
				}
				if got := encodeResult(t, r); !bytes.Equal(got, inRes) {
					t.Errorf("restored read-ahead run differs from inline generation")
				}
			})
		}
	}
	c, r := carried.Value()-carried0, rewound.Value()-rewound0
	t.Logf("read-ahead carried across %d core seams, rewound %d times", c, r)
	if runtime.GOMAXPROCS(0) > 1 && (c == 0 || r == 0) {
		t.Errorf("with helpers, read-ahead carried across %d core seams and rewound %d times; want both > 0", c, r)
	}
}
