package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

var updateBlobs = flag.Bool("update", false, "rewrite testdata/golden_snapshot_digests.json")

// blobDigestsPath holds the sha256 of every sealed blob TestSnapshotBlobGolden
// produces, keyed by "<mix>/<case>".
var blobDigestsPath = filepath.Join("testdata", "golden_snapshot_digests.json")

// blobDigest seals a 400-access warm snapshot of a fresh simulation and
// returns the blob's digest.
func blobDigest(t *testing.T, mix workloads.Mix, factory Factory, o Options, prefix string) string {
	t.Helper()
	s := NewSim(mix, factory, o)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(s.Snapshot(prefix))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// TestSnapshotBlobGolden pins the sealed bytes of a warm snapshot for every
// registered scheme on Q1 and Q7 at cache/64, plus the optional structures
// (miss predictor, victim buffer, prefetcher) the registry entries leave
// disabled. Restore goldens prove a blob round-trips; this proves the
// encoder writes the same bytes for the same state, so a `bmsim
// -checkpoint` file either restores byte-identically or is rejected by
// its version. A failure means the snapshot format drifted: regenerate
// with -update only together with a snapshot.Version and prefix-domain
// bump.
func TestSnapshotBlobGolden(t *testing.T) {
	type case_ struct {
		name     string
		scheme   string
		params   spec.Params
		prefetch int
	}
	var cases []case_
	for _, name := range spec.Names() {
		cases = append(cases, case_{name: name, scheme: name})
	}
	cases = append(cases,
		case_{name: "bimodal+misspred+victims", scheme: "bimodal",
			params: spec.Params{"miss_predictor": 1, "victim_entries": 8}},
		case_{name: "bimodal+prefetch", scheme: "bimodal", prefetch: 2},
	)
	got := map[string]string{}
	for _, mixName := range []string{"Q1", "Q7"} {
		for _, tc := range cases {
			rs, err := spec.RunSpec{
				Scheme: tc.scheme,
				Params: tc.params,
				Mix:    mixName,
				Options: spec.Options{
					AccessesPerCore: 1000,
					WarmupPerCore:   400,
					CacheDivisor:    64,
					Prefetch:        tc.prefetch,
				},
				Seed: 3,
			}.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			prefix, ok, err := rs.PrefixHash()
			if err != nil || !ok {
				t.Fatalf("%s/%s: PrefixHash: ok=%v err=%v", mixName, tc.name, ok, err)
			}
			mix := workloads.MustByName(mixName)
			factory, err := FactoryForSpec(rs, mix.Cores())
			if err != nil {
				t.Fatal(err)
			}
			o := OptionsForSpec(rs)
			o.Workers = 1
			got[mixName+"/"+tc.name] = blobDigest(t, mix, factory, o, prefix)
		}
	}

	if *updateBlobs {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(blobDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(blobDigestsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(blobDigestsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if want[n] != got[n] {
			t.Errorf("%s: sealed blob digest %s, golden %s", n, got[n], want[n])
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: golden digest has no case", n)
		}
	}
}
