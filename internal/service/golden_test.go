package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bimodal/internal/spec"
)

// -update regenerates the golden result files. Any intentional change to
// the simulator's random draw sequence must regenerate these in the same
// commit, with the behavioural diff explained in the PR.
var updateGolden = flag.Bool("update", false, "rewrite golden result files")

// TestResultGolden pins the exact result JSON for a few (mix, scheme, seed)
// triples, built through RunCellSpec on the canonical spec — the path
// every bmserved sweep cell takes. The ANTT cases pin the standalone
// terms too, to the full precision of the result's antt field. The simulator's contract is
// bit-reproducible output per (request, seed): performance refactors of
// the hot path must not move a single counter. A failure here means
// simulated behaviour changed, not just speed.
func TestResultGolden(t *testing.T) {
	cases := []struct {
		mix      string
		scheme   string
		antt     bool
		prefetch int
	}{
		{"Q1", "bimodal", false, 0},
		{"Q1", "alloy", false, 0},
		{"E3", "bimodal", false, 0},
		{"S2", "bimodal-only", false, 0},
		{"Q1", "alloy", true, 0},
		{"Q7", "bimodal", true, 0},
		{"Q2", "bimodal-bypass", true, 1},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.mix + "_" + tc.scheme
		if tc.antt {
			name += "_antt"
		}
		if tc.prefetch > 0 {
			name += fmt.Sprintf("_prefetch%d", tc.prefetch)
		}
		t.Run(name, func(t *testing.T) {
			rs, err := spec.RunSpec{
				Scheme: tc.scheme,
				Mix:    tc.mix,
				Options: spec.Options{AccessesPerCore: 20_000, CacheDivisor: 64,
					ANTT: tc.antt, Prefetch: tc.prefetch},
				Seed: 7,
			}.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := RunCellSpec(context.Background(), rs)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := json.Indent(&buf, raw, "", "  "); err != nil {
				t.Fatal(err)
			}
			got := append(buf.Bytes(), '\n')

			path := filepath.Join("testdata", "golden_"+name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("result JSON diverged from %s\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
