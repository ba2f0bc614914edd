package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"bimodal/internal/dramcache"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
)

// microOptions are the smallest options that still exercise every code
// path of the timing experiments.
func microOptions() Options {
	return Options{
		AccessesPerCore: 1500,
		StreamAccesses:  20_000,
		Seed:            1,
		MaxMixes:        1,
	}
}

func runMicro(t *testing.T, id string) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(context.Background(), microOptions())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tbl == nil || tbl.NumRows() == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return tbl.String()
}

func TestFig7MicroRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	out := runMicro(t, "fig7")
	for _, want := range []string{"average(4-core)", "average(8-core)", "average(16-core)"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 missing %q:\n%s", want, out)
		}
	}
}

func TestFig8aMicroRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	out := runMicro(t, "fig8a")
	if !strings.Contains(out, "bimodal-only") || !strings.Contains(out, "average") {
		t.Errorf("fig8a output:\n%s", out)
	}
}

func TestFig8cMicroRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	out := runMicro(t, "fig8c")
	if !strings.Contains(out, "bimodal reduction") {
		t.Errorf("fig8c output:\n%s", out)
	}
}

func TestFig9aMicroRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	out := runMicro(t, "fig9a")
	if !strings.Contains(out, "savings") {
		t.Errorf("fig9a output:\n%s", out)
	}
}

func TestFig9bMicroRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	out := runMicro(t, "fig9b")
	if !strings.Contains(out, "separate bank") {
		t.Errorf("fig9b output:\n%s", out)
	}
}

func TestFig11MicroRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	out := runMicro(t, "fig11")
	if !strings.Contains(out, "average") {
		t.Errorf("fig11 output:\n%s", out)
	}
}

func TestTable6MicroRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	out := runMicro(t, "table6")
	if !strings.Contains(out, "PREF_NORMAL") || !strings.Contains(out, "PREF_BYPASS") {
		t.Errorf("table6 output:\n%s", out)
	}
}

func TestFig12MicroRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	out := runMicro(t, "fig12")
	for _, want := range []string{"BiModal(64M-512-4)", "BiModal(128M-1024-4)", "BiModal(128M-512-8)"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig12 missing %q:\n%s", want, out)
		}
	}
}

// TestBaselineSchemesFromRegistry pins the derivation every figure relies
// on: the baseline list comes from the scheme registry, in registration
// order, with AlloyCache first (the reference the figures normalize
// against).
func TestBaselineSchemesFromRegistry(t *testing.T) {
	var labels []string
	for _, d := range spec.Baselines() {
		labels = append(labels, d.Name)
	}
	want := []string{"alloy", "lohhill", "atcache", "footprint"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("baselines = %v, want %v", labels, want)
	}
	if reference != labels[0] {
		t.Errorf("reference = %q, want the first baseline %q", reference, labels[0])
	}
	rs := QuickOptions().cellSpec(reference, "Q1")
	f, err := sim.FactoryForSpec(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = 1 << 20
	if name := f(cfg).Name(); name != "AlloyCache" {
		t.Errorf("reference baseline = %q, want AlloyCache", name)
	}
}
