package spec

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_hashes.json")

// TestGoldenHashes pins the spec hash of every scheme preset. A failure
// means the canonical encoding drifted — which silently invalidates every
// stored memoization key and ETag in the wild — so any intentional change
// must be deliberate: rerun with -update and call it out in review.
func TestGoldenHashes(t *testing.T) {
	got := map[string]string{}
	for _, name := range Names() {
		rs := RunSpec{Scheme: name, Mix: "Q1"}
		h, err := rs.Hash()
		if err != nil {
			t.Fatalf("Hash(%s): %v", name, err)
		}
		got[name] = h
	}
	path := filepath.Join("testdata", "golden_hashes.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("canonical spec hashes drifted:\ngot  %v\nwant %v\n(rerun with -update only if the encoding change is intentional)", got, want)
	}
}

// TestCanonicalFixedPoint checks Canonical is idempotent and resolves
// defaults and aliases as documented.
func TestCanonicalFixedPoint(t *testing.T) {
	cases := []RunSpec{
		{Scheme: "bimodal", Mix: "Q1"},
		{Scheme: "bi-modal", Mix: "Q1", Seed: 7},
		{Scheme: "cometa", Mix: "E3", Options: Options{AccessesPerCore: 1000}},
		{Scheme: "alloy", Mix: "S2", Options: Options{WarmupPerCore: -5, CacheDivisor: 1}},
		{Scheme: "bimodal", Mix: "Q2", Params: Params{"way_locator_k": 12, "fixed_big": 0}},
		{Scheme: "footprint-cache", Mix: "Q1", Options: Options{CacheBytes: 1 << 25, CacheDivisor: 64}},
	}
	for _, rs := range cases {
		c1, err := rs.Canonical()
		if err != nil {
			t.Fatalf("Canonical(%+v): %v", rs, err)
		}
		c2, err := c1.Canonical()
		if err != nil {
			t.Fatalf("Canonical(Canonical(%+v)): %v", rs, err)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Errorf("not a fixed point:\nonce  %+v\ntwice %+v", c1, c2)
		}
	}
	c, err := (RunSpec{Scheme: "cometa", Mix: "Q1"}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Scheme != "bimodal-cometa" {
		t.Errorf("alias cometa canonicalized to %q, want bimodal-cometa", c.Scheme)
	}
	if c.Seed != 1 || c.Options.AccessesPerCore != DefaultAccessesPerCore || c.Options.WarmupPerCore != DefaultAccessesPerCore {
		t.Errorf("defaults not resolved: %+v", c)
	}
	c, err = (RunSpec{Scheme: "alloy", Mix: "Q1", Options: Options{WarmupPerCore: -3}}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Options.WarmupPerCore != -1 {
		t.Errorf("negative warmup canonicalized to %d, want -1", c.Options.WarmupPerCore)
	}
	c, err = (RunSpec{Scheme: "alloy", Mix: "Q1", Options: Options{CacheBytes: 1 << 20, CacheDivisor: 8}}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Options.CacheDivisor != 0 {
		t.Errorf("divisor with explicit cache bytes kept: %d", c.Options.CacheDivisor)
	}
}

// TestAliasesShareHashes checks an alias hashes identically to its
// canonical name — the property that lets the memoization cache join
// requests spelled differently.
func TestAliasesShareHashes(t *testing.T) {
	pairs := [][2]string{
		{"bimodal", "bi-modal"},
		{"bimodal-cometa", "cometa"},
		{"bimodal-bypass", "bypass"},
		{"bimodal-only", "without-locator"},
		{"wl-only", "fixed-big"},
		{"alloy", "alloycache"},
	}
	for _, p := range pairs {
		h1, err1 := (RunSpec{Scheme: p[0], Mix: "Q1"}).Hash()
		h2, err2 := (RunSpec{Scheme: p[1], Mix: "Q1"}).Hash()
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: %v / %v", p, err1, err2)
		}
		if h1 != h2 {
			t.Errorf("hash(%s)=%s != hash(%s)=%s", p[0], h1, p[1], h2)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	if _, err := Lookup("bimodl"); err == nil ||
		!strings.Contains(err.Error(), "unknown scheme") ||
		!strings.Contains(err.Error(), `did you mean "bimodal"`) {
		t.Errorf("Lookup(bimodl) = %v, want unknown-scheme error with suggestion", err)
	}
	if _, err := Lookup(""); err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("Lookup(\"\") = %v, want plain unknown-scheme error", err)
	}
}

func TestCheckParams(t *testing.T) {
	d, err := Lookup("bimodal")
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		p    Params
		want string
	}{
		{Params{"nope": 1}, "no parameter"},
		{Params{"way_locatr_k": 12}, `did you mean "way_locator_k"`},
		{Params{"fixed_big": 2}, "flag"},
		{Params{"way_locator_k": 99}, "out of range"},
		{Params{"way_locator_k": -4}, "out of range"},
		{Params{"big_block": 300}, "power of two"},
		{Params{"big_block": 1 << 11, "set_bytes": 1 << 10}, "exceeds set_bytes"},
		{Params{"min_big": 9}, "big ways"},
		{Params{"threshold": 12}, "sub-blocks"},
		{Params{"set_bytes": 1 << 14, "big_block": 128, "min_big": 1, "threshold": 2}, "128 big ways, more than 32"},
		{Params{"set_bytes": 4096, "big_block": 256, "min_big": 1, "threshold": 2}, "60 small ways, more than 32"},
	}
	for _, c := range bad {
		err := d.CheckParams(c.p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("CheckParams(%v) = %v, want error containing %q", c.p, err, c.want)
		}
	}
	ok := []Params{
		nil,
		{"way_locator_k": 12},
		{"without_locator": 1, "victim_entries": 64},
		{"set_bytes": 4096, "big_block": 1024, "min_big": 2, "threshold": 8},
	}
	for _, p := range ok {
		if err := d.CheckParams(p); err != nil {
			t.Errorf("CheckParams(%v) = %v, want nil", p, err)
		}
	}
	alloy, err := Lookup("alloy")
	if err != nil {
		t.Fatal(err)
	}
	if err := alloy.CheckParams(Params{"way_locator_k": 12}); err == nil ||
		!strings.Contains(err.Error(), "takes no parameters") {
		t.Errorf("alloy.CheckParams = %v, want takes-no-parameters error", err)
	}
}

func TestParamsUnmarshal(t *testing.T) {
	var p Params
	if err := json.Unmarshal([]byte(`{"fixed_big": true, "way_locator_k": 12, "miss_predictor": false}`), &p); err != nil {
		t.Fatal(err)
	}
	want := Params{"fixed_big": 1, "way_locator_k": 12, "miss_predictor": 0}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("got %v, want %v", p, want)
	}
	if err := json.Unmarshal([]byte(`{"way_locator_k": 1.5}`), &p); err == nil {
		t.Error("fractional param accepted")
	}
	if err := json.Unmarshal([]byte(`{"way_locator_k": "12"}`), &p); err == nil {
		t.Error("string param accepted")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"scheme":"bimodal","mix":"Q1","workers":8}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"scheme":"bimodal","mix":"Q1"} trailing`)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestRegistryShape pins the registry's structural invariants the rest of
// the system relies on: nine schemes in comparison order, four baselines,
// and the bimodal family presets, every scheme either a member of the
// Bi-Modal family (the plain scheme or a preset) or a baseline.
func TestRegistryShape(t *testing.T) {
	wantNames := []string{
		"bimodal", "bimodal-only", "wl-only", "bimodal-cometa",
		"bimodal-bypass", "alloy", "lohhill", "atcache", "footprint",
	}
	if got := Names(); !reflect.DeepEqual(got, wantNames) {
		t.Errorf("Names() = %v, want %v", got, wantNames)
	}
	var base []string
	for _, d := range Baselines() {
		base = append(base, d.Name)
	}
	if want := []string{"alloy", "lohhill", "atcache", "footprint"}; !reflect.DeepEqual(base, want) {
		t.Errorf("Baselines() = %v, want %v", base, want)
	}
	for _, d := range Descriptors() {
		if d.Family != "" && d.Family != "bimodal" {
			t.Errorf("scheme %q has unexpected family %q", d.Name, d.Family)
		}
		if d.Build == nil {
			t.Errorf("scheme %q has no builder", d.Name)
		}
		if inFamily := d.Name == "bimodal" || d.Family == "bimodal"; inFamily == d.Baseline {
			t.Errorf("scheme %q: in the Bi-Modal family %v, baseline %v", d.Name, inFamily, d.Baseline)
		}
	}
}

func TestRegisterRejectsCollisions(t *testing.T) {
	alloy, err := Lookup("alloy")
	if err != nil {
		t.Fatal(err)
	}
	// Every case must fail, so the registry is left untouched for the
	// other tests.
	if err := Register(Descriptor{Name: "alloy", Build: alloy.Build}); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate name: %v", err)
	}
	if err := Register(Descriptor{Name: "new-scheme", Aliases: []string{"cometa"}, Build: alloy.Build}); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate alias: %v", err)
	}
	if err := Register(Descriptor{Name: "orphan", Family: "no-such-family"}); err == nil ||
		!strings.Contains(err.Error(), "unknown family") {
		t.Errorf("unknown family: %v", err)
	}
	if err := Register(Descriptor{Name: "no-builder"}); err == nil ||
		!strings.Contains(err.Error(), "no builder") {
		t.Errorf("missing builder: %v", err)
	}
}
