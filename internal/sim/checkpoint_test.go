package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/energy"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// resultView is RunResult minus the live Scheme handle: the comparable,
// marshalable projection the golden tests compare byte-for-byte.
type resultView struct {
	Mix       string
	PerCore   []cpu.CoreResult
	PerTenant []cpu.TenantResult
	Report    dramcache.Report
	Energy    energy.Breakdown
}

func viewJSON(t *testing.T, r RunResult) []byte {
	t.Helper()
	b, err := json.Marshal(resultView{Mix: r.Mix, PerCore: r.PerCore, PerTenant: r.PerTenant, Report: r.Report, Energy: r.Energy})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func goldenSpec(t *testing.T, scheme string, params spec.Params, prefetch int) spec.RunSpec {
	t.Helper()
	rs := spec.RunSpec{
		Scheme: scheme,
		Params: params,
		Mix:    "Q1",
		Options: spec.Options{
			AccessesPerCore: 1000,
			CacheDivisor:    64,
			Prefetch:        prefetch,
		},
		Seed: 3,
	}
	c, err := rs.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkRestoreGolden proves the tentpole property for one configuration:
// warmup → snapshot → restore into a freshly built simulation → measure
// produces results byte-identical to a straight-through run.
func checkRestoreGolden(t *testing.T, mix workloads.Mix, factory Factory, o Options, prefix string) {
	t.Helper()
	ctx := context.Background()

	golden := viewJSON(t, runSim(t, NewSim(mix, factory, o)))

	producer := NewSim(mix, factory, o)
	if err := producer.Warmup(ctx); err != nil {
		t.Fatal(err)
	}
	blob := producer.Snapshot(prefix)

	restored := NewSim(mix, factory, o)
	if err := restored.Restore(blob, prefix); err != nil {
		t.Fatalf("restore: %v", err)
	}
	warmRes, err := restored.Measure(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := viewJSON(t, warmRes); !bytes.Equal(got, golden) {
		t.Errorf("restore-then-run diverged from straight-through:\n got: %s\nwant: %s", got, golden)
	}

	// The producer's own measured window must also match: it warmed up
	// in-process and measures without restoring.
	prodRes, err := producer.Measure(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := viewJSON(t, prodRes); !bytes.Equal(got, golden) {
		t.Errorf("producer measure diverged from straight-through:\n got: %s\nwant: %s", got, golden)
	}
}

// TestRestoreThenRunGolden covers every registered scheme, plus variants
// exercising the optional structures (miss predictor, victim buffer,
// prefetcher) the plain registry entries leave disabled.
func TestRestoreThenRunGolden(t *testing.T) {
	type case_ struct {
		name     string
		scheme   string
		params   spec.Params
		prefetch int
	}
	cases := []case_{}
	for _, name := range spec.Names() {
		cases = append(cases, case_{name: name, scheme: name})
	}
	cases = append(cases,
		case_{name: "bimodal+misspred+victims", scheme: "bimodal",
			params: spec.Params{"miss_predictor": 1, "victim_entries": 8}},
		case_{name: "bimodal+prefetch", scheme: "bimodal", prefetch: 2},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := goldenSpec(t, tc.scheme, tc.params, tc.prefetch)
			prefix, ok, err := rs.PrefixHash()
			if err != nil || !ok {
				t.Fatalf("PrefixHash: ok=%v err=%v", ok, err)
			}
			mix := workloads.MustByName(rs.Mix)
			factory, err := FactoryForSpec(rs, mix.Cores())
			if err != nil {
				t.Fatal(err)
			}
			o := OptionsForSpec(rs)
			o.Workers = 1
			checkRestoreGolden(t, mix, factory, o, prefix)
		})
	}
}

// TestRestoreGoldenLohHillMissMap covers the MissMap (a Go map serialized
// in sorted-key order), which no registry entry enables.
func TestRestoreGoldenLohHillMissMap(t *testing.T) {
	mix := workloads.MustByName("Q1")
	factory := func(cfg dramcache.Config) dramcache.Scheme {
		return dramcache.NewLohHill(cfg, dramcache.WithMissMap())
	}
	o := Options{AccessesPerCore: 1000, CacheDivisor: 64, Seed: 3, Workers: 1}
	checkRestoreGolden(t, mix, factory, o, "sha256:"+string(bytes.Repeat([]byte{'a'}, 64)))
}

// TestRestorePrefixMismatch proves a blob cannot restore under a
// different prefix hash: the envelope binding, not caller discipline,
// enforces congruence.
func TestRestorePrefixMismatch(t *testing.T) {
	rs := goldenSpec(t, "alloy", nil, 0)
	prefix, _, err := rs.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	mix := workloads.MustByName(rs.Mix)
	factory, err := FactoryForSpec(rs, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	o := OptionsForSpec(rs)
	s := NewSim(mix, factory, o)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := s.Snapshot(prefix)
	other := NewSim(mix, factory, o)
	if err := other.Restore(blob, "sha256:"+string(bytes.Repeat([]byte{'0'}, 64))); err == nil {
		t.Fatal("restore under a mismatched prefix hash succeeded")
	}
}

// TestRestoreIncongruentGeometry proves structural validation: a blob
// restored (with the binding check bypassed) into a simulation built from
// a different configuration must fail loudly, not misread state.
func TestRestoreIncongruentGeometry(t *testing.T) {
	rs := goldenSpec(t, "bimodal", nil, 0)
	prefix, _, err := rs.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	mix := workloads.MustByName(rs.Mix)
	factory, err := FactoryForSpec(rs, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	o := OptionsForSpec(rs)
	s := NewSim(mix, factory, o)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := s.Snapshot(prefix)

	smaller := o
	smaller.CacheDivisor = o.CacheDivisor * 2
	other := NewSim(mix, factory, smaller)
	if err := other.Restore(blob, ""); err == nil {
		t.Fatal("restore into a differently-sized cache succeeded")
	}
}

// TestRestoreRejectsCorruptBlob proves the sealed envelope catches bit
// rot before any state is overwritten.
func TestRestoreRejectsCorruptBlob(t *testing.T) {
	rs := goldenSpec(t, "footprint", nil, 0)
	prefix, _, err := rs.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	mix := workloads.MustByName(rs.Mix)
	factory, err := FactoryForSpec(rs, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	o := OptionsForSpec(rs)
	s := NewSim(mix, factory, o)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := s.Snapshot(prefix)
	blob[len(blob)/2] ^= 0x10
	if err := NewSim(mix, factory, o).Restore(blob, prefix); err == nil {
		t.Fatal("corrupt blob restored")
	}
}

// TestRestoreRejectsBadTableBool proves the bulk table decoders keep their
// per-element checks. A sealed Bi-Modal blob is patched behind a section
// tag and resealed with a correct checksum, and restore must still fail
// for:
//   - a valid byte of 2 in the first way-locator entry or cache-set way;
//   - a locator way of 64, or a lastUse or locator clock of 2^56, which do
//     not fit the packed 16-byte entry;
//   - a big or a small way whose valid byte is 1 while its occupancy bit
//     is 0 (the masks are the cache's only validity state).
func TestRestoreRejectsBadTableBool(t *testing.T) {
	rs := goldenSpec(t, "bimodal", nil, 0)
	prefix, _, err := rs.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	mix := workloads.MustByName(rs.Mix)
	factory, err := FactoryForSpec(rs, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	o := OptionsForSpec(rs)
	s := NewSim(mix, factory, o)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := s.Snapshot(prefix)
	if err := NewSim(mix, factory, o).Restore(blob, prefix); err != nil {
		t.Fatalf("unmodified blob: %v", err)
	}
	// A section tag is 0xA5, its u32 length and its name; the table
	// follows. Behind "corecache" sits the first set: its header (X and
	// Y, then the big and small occupancy masks at 16 and 20: 24 bytes),
	// four 17-byte big ways (valid, tag, dirty, used) and its 10-byte
	// small ways (valid, lineID, dirty). Behind "waylocator" sit the
	// 26-byte entries (valid, big, blockID, way at 10, lastUse at 18);
	// the clock and three counters end that section, right before the
	// "sizepred" tag.
	tagBytes := func(tag string) int { return 1 + 4 + len(tag) }
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	type patch struct {
		tag  string
		off  int // from the end of the tag
		data []byte
	}
	for _, tc := range []struct {
		name    string
		patches []patch
		want    string
	}{
		{"waylocator", []patch{{"waylocator", 0, []byte{2}}}, "invalid bool byte 2"},
		{"corecache", []patch{{"corecache", 24, []byte{2}}}, "invalid bool byte 2"},
		{"waylocator_way", []patch{{"waylocator", 10, u64(64)}}, "does not fit"},
		{"waylocator_lastUse", []patch{{"waylocator", 18, u64(1 << 56)}}, "does not fit"},
		{"waylocator_clock", []patch{{"sizepred", -tagBytes("sizepred") - 32, u64(1 << 56)}}, "does not fit"},
		{"corecache_big_valid", []patch{{"corecache", 16, u32(0)}, {"corecache", 24, []byte{1}}}, "occupancy"},
		{"corecache_small_valid", []patch{{"corecache", 20, u32(0)}, {"corecache", 24 + 4*17, []byte{1}}}, "occupancy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), blob...)
			for _, p := range tc.patches {
				marker := append([]byte{0xA5}, binary.LittleEndian.AppendUint32(nil, uint32(len(p.tag)))...)
				marker = append(marker, p.tag...)
				at := bytes.Index(blob, marker)
				if at < 0 || bytes.Index(blob[at+1:], marker) >= 0 {
					t.Fatalf("section %q not found exactly once", p.tag)
				}
				copy(bad[at+len(marker)+p.off:], p.data)
			}
			body := bad[:len(bad)-sha256.Size]
			sum := sha256.Sum256(body)
			copy(bad[len(body):], sum[:])
			err := NewSim(mix, factory, o).Restore(bad, prefix)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore of the patched blob: err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestPrefixHashGrouping pins the prefix-hash semantics the sweep planner
// relies on: cells differing only in measured length share a prefix
// (except the run-length-coupled Bi-Modal family), cells differing
// in seed or warmup do not, and ANTT or warmup-disabled cells have none.
func TestPrefixHashGrouping(t *testing.T) {
	base := spec.RunSpec{Scheme: "alloy", Mix: "Q1",
		Options: spec.Options{AccessesPerCore: 1000, WarmupPerCore: 500, CacheDivisor: 64}, Seed: 3}
	h1, ok, err := base.PrefixHash()
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}

	longer := base
	longer.Options.AccessesPerCore = 5000
	if h2, _, _ := longer.PrefixHash(); h2 != h1 {
		t.Error("measured length changed an alloy prefix hash")
	}

	coupled := base
	coupled.Scheme = "bimodal"
	ch1, _, _ := coupled.PrefixHash()
	coupledLonger := coupled
	coupledLonger.Options.AccessesPerCore = 5000
	if ch2, _, _ := coupledLonger.PrefixHash(); ch2 == ch1 {
		t.Error("bimodal scales core params from run length; prefix must differ")
	}

	seeded := base
	seeded.Seed = 4
	if h3, _, _ := seeded.PrefixHash(); h3 == h1 {
		t.Error("seed change kept the prefix hash")
	}

	noWarm := base
	noWarm.Options.WarmupPerCore = -1
	if _, ok, _ := noWarm.PrefixHash(); ok {
		t.Error("warmup-disabled spec reported a prefix")
	}

	antt := base
	antt.Options.ANTT = true
	if _, ok, _ := antt.PrefixHash(); ok {
		t.Error("ANTT spec reported a prefix")
	}

	if h, err := base.Hash(); err != nil || h == h1 {
		t.Errorf("prefix hash must be domain-separated from the result hash (%v)", err)
	}
}

// TestPrefixHashSoundness checks the prefix hash against the state it
// names, for every registered scheme: two cells differing only in measured
// length either share a prefix hash and seal byte-identical warm blobs, or
// the scheme is MeasuredCoupled — the one flag that makes both the factory
// and the hash depend on measured length.
func TestPrefixHashSoundness(t *testing.T) {
	mix := workloads.MustByName("Q1")
	seal := func(t *testing.T, scheme string, accesses int64) (prefix string, blob []byte) {
		t.Helper()
		rs, err := spec.RunSpec{Scheme: scheme, Mix: "Q1",
			Options: spec.Options{AccessesPerCore: accesses, WarmupPerCore: 400, CacheDivisor: 64}, Seed: 3}.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		prefix, ok, err := rs.PrefixHash()
		if err != nil || !ok {
			t.Fatalf("PrefixHash: ok=%v err=%v", ok, err)
		}
		factory, err := FactoryForSpec(rs, mix.Cores())
		if err != nil {
			t.Fatal(err)
		}
		o := OptionsForSpec(rs)
		o.Workers = 1
		s := NewSim(mix, factory, o)
		if err := s.Warmup(context.Background()); err != nil {
			t.Fatal(err)
		}
		return prefix, s.Snapshot(prefix)
	}
	for _, name := range spec.Names() {
		t.Run(name, func(t *testing.T) {
			d, err := spec.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			shortPrefix, shortBlob := seal(t, name, 200)
			longPrefix, longBlob := seal(t, name, 300)
			switch {
			case shortPrefix == longPrefix && !bytes.Equal(shortBlob, longBlob):
				t.Errorf("equal prefix hashes but the warm blobs differ (%d vs %d bytes)", len(shortBlob), len(longBlob))
			case shortPrefix != longPrefix && !d.MeasuredCoupled:
				t.Error("measured length changed the prefix hash of a scheme that is not MeasuredCoupled")
			}
		})
	}
}
