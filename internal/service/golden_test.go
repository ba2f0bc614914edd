package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
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
// every bmserved sweep cell takes. The simulator's contract is
// bit-reproducible output per (request, seed): performance refactors of
// the hot path must not move a single counter. A failure here means
// simulated behaviour changed, not just speed.
func TestResultGolden(t *testing.T) {
	cases := []struct {
		mix    string
		scheme string
	}{
		{"Q1", "bimodal"},
		{"Q1", "alloy"},
		{"E3", "bimodal"},
		{"S2", "bimodal-only"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.mix+"_"+tc.scheme, func(t *testing.T) {
			rs, err := spec.RunSpec{
				Scheme:  tc.scheme,
				Mix:     tc.mix,
				Options: spec.Options{AccessesPerCore: 20_000, CacheDivisor: 64},
				Seed:    7,
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

			path := filepath.Join("testdata", "golden_"+tc.mix+"_"+tc.scheme+".json")
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
