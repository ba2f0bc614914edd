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

// TestRestoreRejectsBadTableBool proves the Bi-Modal decoders keep their
// checks. A sealed blob is patched and resealed with a correct checksum,
// and restore must still fail for:
//   - a presence flag of 2 (the way locator's, in the core cache section,
//     and the victim buffer's, the payload's last byte);
//   - a set whose dirty mask marks a small way that holds no line, or whose
//     occupancy masks mark a way beyond its state's X or Y;
//   - a valid way-locator entry whose way, or whose block ID moved by 2^20
//     (same index), does not hold its block, which the first Measure would
//     otherwise hit and panic on;
//   - a locator clock of 2^56, which the 56-bit lastUse stamp cannot hold;
//   - a sparse table (the way locator's) whose count disagrees with its
//     bitmap, or which carries a present entry that is all zero;
//   - a set table followed by a stray byte, which the locator presence
//     flag then reads.
//
// Every sparse table of a real blob has a multiple of 8 entries, so a
// presence bit past a table's end has no room here; internal/snapshot's
// TestSparseRejectsMalformed covers it.
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
	// A section tag is 0xA5, its u32 length and its name. Behind
	// "corecache" sits the dense table of 28-byte set headers (X and Y,
	// then the big, small and small-dirty masks at 16, 20 and 24), then the
	// big and small ways as sparse tables: a presence bitmap, a u32 count
	// and the present entries. The locator presence flag ends the set
	// table, right before "waylocator", behind which sits the sparse table
	// of the 2^(K+1) 16-byte locator entries (block ID, then the meta word:
	// valid bit 63, big bit 62, way in bits 56-61); the clock and three
	// counters end that section, right before "sizepred". The payload ends
	// with the miss predictor's and the victim buffer's presence flags.
	u32 := binary.LittleEndian.Uint32
	put32, put64 := binary.LittleEndian.PutUint32, binary.LittleEndian.PutUint64
	section := func(t *testing.T, b []byte, tag string) int {
		t.Helper()
		marker := append([]byte{0xA5}, binary.LittleEndian.AppendUint32(nil, uint32(len(tag)))...)
		marker = append(marker, tag...)
		at := bytes.Index(b, marker)
		if at < 0 || bytes.Index(b[at+1:], marker) >= 0 {
			t.Fatalf("section %q not found exactly once", tag)
		}
		return at + len(marker)
	}
	// presenceFlag is the offset of the locator presence flag.
	presenceFlag := func(t *testing.T, b []byte) int {
		return section(t, b, "waylocator") - (1 + 4 + len("waylocator")) - 1
	}
	// locator returns the offset of the locator table's count and its
	// present entries.
	locator := func(t *testing.T, b []byte) (countAt int, entries []byte) {
		t.Helper()
		countAt = section(t, b, "waylocator") + (2<<dramcache.DefaultConfig(4).WayLocatorK)/8
		return countAt, b[countAt+4 : countAt+4+16*int(u32(b[countAt:]))]
	}
	// validEntries calls f with every valid locator entry.
	validEntries := func(t *testing.T, b []byte, f func(e []byte)) {
		t.Helper()
		_, entries := locator(t, b)
		n := 0
		for ; len(entries) > 0; entries = entries[16:] {
			if binary.LittleEndian.Uint64(entries[8:])>>63 != 0 {
				f(entries[:16])
				n++
			}
		}
		if n == 0 {
			t.Fatal("no valid way-locator entry")
		}
	}
	for _, tc := range []struct {
		name string
		// edit patches the blob in place, or returns a longer one.
		edit func(t *testing.T, b []byte) []byte
		want string
	}{
		{"waylocator", func(t *testing.T, b []byte) []byte {
			b[presenceFlag(t, b)] = 2
			return b
		}, "invalid bool byte 2"},
		{"bimodal", func(t *testing.T, b []byte) []byte {
			b[len(b)-sha256.Size-1] = 2
			return b
		}, "invalid bool byte 2"},
		{"corecache", func(t *testing.T, b []byte) []byte {
			h := b[section(t, b, "corecache"):]
			put32(h[24:], ^u32(h[20:]))
			return b
		}, "dirty but holds no line"},
		{"corecache_big_valid", func(t *testing.T, b []byte) []byte {
			h := b[section(t, b, "corecache"):]
			put32(h[16:], u32(h[16:])|1<<binary.LittleEndian.Uint64(h))
			return b
		}, "beyond X"},
		{"corecache_small_valid", func(t *testing.T, b []byte) []byte {
			h := b[section(t, b, "corecache"):]
			put32(h[20:], u32(h[20:])|1<<binary.LittleEndian.Uint64(h[8:]))
			return b
		}, "beyond Y"},
		{"waylocator_way", func(t *testing.T, b []byte) []byte {
			done := false
			validEntries(t, b, func(e []byte) {
				if !done {
					e[15] ^= 1 // the low way bit
					done = true
				}
			})
			return b
		}, "does not hold it"},
		{"waylocator_block", func(t *testing.T, b []byte) []byte {
			validEntries(t, b, func(e []byte) { put64(e, binary.LittleEndian.Uint64(e)+1<<20) })
			return b
		}, "does not hold it"},
		{"waylocator_clock", func(t *testing.T, b []byte) []byte {
			put64(b[section(t, b, "sizepred")-(1+4+len("sizepred"))-32:], 1<<56)
			return b
		}, "does not fit"},
		{"sparse_count", func(t *testing.T, b []byte) []byte {
			at, _ := locator(t, b)
			put32(b[at:], u32(b[at:])-1)
			return b
		}, "but its bitmap marks"},
		{"sparse_zero_entry", func(t *testing.T, b []byte) []byte {
			_, entries := locator(t, b)
			clear(entries[:16])
			return b
		}, "present but all zero"},
		{"set_table_trailing", func(t *testing.T, b []byte) []byte {
			// Insert a zero byte and lengthen the envelope's payload, which
			// the u32 before the payload holds.
			at := presenceFlag(t, b)
			b = append(b[:at:at], append([]byte{0}, b[at:]...)...)
			payloadLen := len(b) - sha256.Size - len(prefix) - (4 + 4 + 4 + 4)
			put32(b[4+4+4+len(prefix):], uint32(payloadLen))
			return b
		}, "locator presence mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.edit(t, append([]byte(nil), blob...))
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
// relies on: cells differing only in measured length share a prefix (the
// Bi-Modal family too, which scales its core parameters to the warmup), an
// ANTT cell shares its twin's, cells differing in scheme, seed or warmup
// do not, and warmup-disabled cells have none.
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

	bm := base
	bm.Scheme = "bimodal"
	bh1, _, _ := bm.PrefixHash()
	if bh1 == h1 {
		t.Error("scheme change kept the prefix hash")
	}
	bmLonger := bm
	bmLonger.Options.AccessesPerCore = 5000
	if bh2, _, _ := bmLonger.PrefixHash(); bh2 != bh1 {
		t.Error("measured length changed a bimodal prefix hash")
	}
	bmWarmer := bm
	bmWarmer.Options.WarmupPerCore = 5000
	if bh3, _, _ := bmWarmer.PrefixHash(); bh3 == bh1 {
		t.Error("warmup change kept a bimodal prefix hash")
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
	if h4, ok, _ := antt.PrefixHash(); !ok || h4 != h1 {
		t.Errorf("ANTT spec: prefix %q (ok=%v), want its twin's %q", h4, ok, h1)
	}

	if h, err := base.Hash(); err != nil || h == h1 {
		t.Errorf("prefix hash must be domain-separated from the result hash (%v)", err)
	}
}

// TestPrefixHashSoundness checks the prefix hash against the state it
// names, for every registered scheme: two cells differing only in measured
// length share a prefix hash and seal byte-identical warm blobs.
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
			shortPrefix, shortBlob := seal(t, name, 200)
			longPrefix, longBlob := seal(t, name, 300)
			switch {
			case shortPrefix != longPrefix:
				t.Error("measured length changed the prefix hash")
			case !bytes.Equal(shortBlob, longBlob):
				t.Errorf("equal prefix hashes but the warm blobs differ (%d vs %d bytes)", len(shortBlob), len(longBlob))
			}
		})
	}
}
