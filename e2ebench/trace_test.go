package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"bimodal/internal/cpu"
	"bimodal/internal/sim"
	"bimodal/internal/snapshot"
	"bimodal/internal/trace"
	"bimodal/internal/workloads"
)

func TestSamplerEstimate(t *testing.T) {
	const clock = 20
	var s sampler
	// Timed calls alternate between 100 ns and 300 ns, each carrying one
	// clock read; the estimate must recover the 200 ns mean and scale it by
	// every call, timed or not.
	for i := 1; i <= 3200; i++ {
		s.calls++
		if i%sampleEvery == 0 {
			d := int64(100)
			if (i/sampleEvery)%2 == 0 {
				d = 300
			}
			s.observe(d + clock)
		}
	}
	if s.timed != 3200/sampleEvery {
		t.Fatalf("timed %d calls, want %d", s.timed, 3200/sampleEvery)
	}
	if got := s.meanNs(clock); got != 200 {
		t.Errorf("mean %v ns, want 200", got)
	}
	if got := s.totalNs(clock); got != 200*3200 {
		t.Errorf("total %v ns, want %v", got, 200*3200)
	}
	var idle sampler
	if idle.meanNs(clock) != 0 || idle.totalNs(clock) != 0 {
		t.Error("a sampler that timed nothing must estimate 0")
	}
}

func TestTracedGenSamplesOneCallIn32(t *testing.T) {
	accs := make([]trace.Access, 100)
	for i := range accs {
		accs[i] = trace.Access{Gap: uint32(i + 1)}
	}
	tr := newTracer()
	var s sampler
	g := &tracedGen{inner: &trace.SliceGen{Accs: accs}, t: tr, s: &s}
	// Timed calls record spans only while detail is set: the first 64 calls
	// time 2 without spans, the next 32 time 1 with a span.
	for i := 0; i < 96; i++ {
		tr.detail = i >= 64
		if got := g.Next(); got != accs[i] {
			t.Fatalf("call %d returned %+v, want %+v", i, got, accs[i])
		}
	}
	if s.calls != 96 || s.timed != 3 || len(tr.spans) != 1 {
		t.Errorf("%d calls, %d timed, %d spans; want 96, 3, 1", s.calls, s.timed, len(tr.spans))
	}
	if g.Tenants() != 1 {
		t.Errorf("a single-stream generator reports %d tenants, want 1", g.Tenants())
	}
}

// The traced engine must produce the untraced bytes: a wrapper that failed
// to forward Tenants would drop dc8-tenants' per-tenant results, and one
// that failed to forward a generator's Reset would replay the previous
// cell's stream in every recycled cell.
func TestTracedCellsMatchUntraced(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloadTable {
		if w.sweep {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			traced := &tracedCellRunner{w: w, seed: 7, scale: 64, t: newTracer()}
			plain := cellRunner{w: w, seed: 7, scale: 64}
			for k := 0; k < 3; k++ { // unit 0 builds the engine, the rest recycle it
				a, b := plain.run(ctx, k), traced.run(ctx, k)
				if a.err != nil || b.err != nil {
					t.Fatalf("unit %d: %v, %v", k, a.err, b.err)
				}
				if !bytes.Equal(a.raw, b.raw) {
					t.Errorf("unit %d: traced result differs:\n%s\n%s", k, a.raw, b.raw)
				}
			}
		})
	}
}

// A wrapped engine must seal the snapshot a plain one seals, and measure
// the same after restoring it: the wrappers forward the snapshot methods.
func TestTracedEngineSnapshots(t *testing.T) {
	ctx := context.Background()
	w, err := workloadByName("dc8-tenants")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := w.unitSpecs(5, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	rs := specs[0]
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := sim.FactoryForSpec(rs, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	so := sim.OptionsForSpec(rs)
	plain := cpu.NewEngine(factory(sim.ConfigFor(mix, so)), mix.Generators(so.Seed), cpu.DefaultCoreConfig(), nil)
	pre, err := plain.WarmupContext(ctx, so.WarmupPerCore)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot.NewWriter()
	plain.SnapshotState(want)

	warm := &tracedCellRunner{w: w, seed: 5, scale: 64, t: newTracer()}
	if err := warm.get(rs, mix, so); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.eng.WarmupContext(ctx, so.WarmupPerCore); err != nil {
		t.Fatal(err)
	}
	got := snapshot.NewWriter()
	warm.eng.SnapshotState(got)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("a wrapped engine's snapshot differs from a plain engine's")
	}

	restored := &tracedCellRunner{w: w, seed: 5, scale: 64, t: newTracer()}
	if err := restored.get(rs, mix, so); err != nil {
		t.Fatal(err)
	}
	r := snapshot.NewReader(want.Bytes())
	restored.eng.RestoreState(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	a, err := plain.MeasureAfterWarmupContext(ctx, so.AccessesPerCore, pre)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.eng.MeasureAfterWarmupContext(ctx, so.AccessesPerCore, restored.eng.CumulativeResults())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("measured after restore into a wrapped engine:\n%+v\nwant\n%+v", b, a)
	}
}
