package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestE2ESmoke runs every workload with cells and caches shrunk 64 times,
// untraced twice and traced once.
func TestE2ESmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloadTable {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{w: w, seed: 3, scale: 64, spans: filepath.Join(t.TempDir(), "spans.jsonl")}
			a, err := run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []result{a, b} {
				if !res.Correct || res.Failed != 0 || res.Attempted < minUnits {
					t.Errorf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.lines)
				}
			}
			if a.digest != b.digest {
				t.Errorf("two runs of seed 3 digest to %s and %s", a.digest, b.digest)
			}
			checkMetrics(t, endToEndMetrics, a.Metrics, true)

			cfg.trace = true
			tr, err := run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct || tr.Failed != 0 {
				t.Errorf("traced run: correct %v, %d of %d failed: %v", tr.Correct, tr.Failed, tr.Attempted, tr.lines)
			}
			checkMetrics(t, perLayerMetrics, tr.Metrics, false)
			if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func checkMetrics(t *testing.T, defs []metricDef, got map[string]metric, positive bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s in %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (positive && m.Value <= 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden.json from the current code")

// TestGolden recomputes the recorded digests at full scale. With -update it
// rewrites golden.json instead, after a deliberate change of result bytes.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full scale")
	}
	ctx := context.Background()
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]golden{}
	for _, w := range workloadTable {
		var r runner = cellRunner{w: w, seed: 1, scale: 1}
		if w.sweep {
			sr, err := newSweepRunner(ctx, w, 1, 1, newGenStore())
			if err != nil {
				t.Fatal(err)
			}
			r = sr
		}
		var raws [][]byte
		for k := 0; k <= digestUnits; k++ {
			u := r.run(ctx, k)
			if u.err != nil {
				t.Fatalf("%s unit %d: %v", w.name, k, u.err)
			}
			raws = append(raws, u.raw)
		}
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
		got[w.name] = golden{Prime: digest(raws[0]), Seed1: digest(raws[1:]...)}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("golden.json records %d workloads, want %d", len(want), len(got))
	}
	for name, g := range got {
		if want[name] != g {
			t.Errorf("%s: digests %+v, recorded %+v", name, g, want[name])
		}
	}
}
