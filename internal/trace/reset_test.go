package trace

import (
	"bytes"
	"testing"
)

// TestResetMatchesFreshConstruction is the Generator.Reset contract test:
// for every generator kind, Reset(seed) must reproduce the exact stream a
// freshly constructed instance with the same configuration and that seed
// would emit — including a seed different from the one the instance was
// built with, after the instance has already been partially drained.
func TestResetMatchesFreshConstruction(t *testing.T) {
	const n = 4096
	cases := []struct {
		name  string
		fresh func(seed uint64) Generator
	}{
		{"synthetic-kvstore", func(seed uint64) Generator {
			return NewSynthetic(MustProfile("kvstore"), 0, seed)
		}},
		{"synthetic-webserve-bursty", func(seed uint64) Generator {
			return NewSynthetic(MustProfile("webserve"), 0, seed)
		}},
		{"synthetic-mcf", func(seed uint64) Generator {
			return NewSynthetic(MustProfile("mcf"), 0, seed)
		}},
		{"interleaver-dc4", func(seed uint64) Generator {
			return NewInterleaver("dc4", []TenantStream{
				{Prof: MustProfile("kvstore"), Weight: 1},
				{Prof: MustProfile("kvstore"), Weight: 2},
				{Prof: MustProfile("webserve"), Weight: 1},
				{Prof: MustProfile("scan"), Weight: 1},
			}, 0, 0.05, 64, seed)
		}},
		{"llsc-filtered", func(seed uint64) Generator {
			return NewLLSCFilter(NewSynthetic(MustProfile("kvstore"), 0, seed), 1<<18, 8)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := tc.fresh(3)
			for i := 0; i < 10_000; i++ { // drain mid-episode state
				g.Next()
			}
			g.Reset(17)
			got := Collect(g, n)
			want := Collect(tc.fresh(17), n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("access %d after Reset(17) = %+v, want fresh-construction %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSliceGenResetRewinds is the regression test for the historical bug
// where SliceGen.Reset silently discarded its seed: a recorded slice has
// no randomness, so Reset must rewind the cursor identically for every
// seed — by design, not by omission.
func TestSliceGenResetRewinds(t *testing.T) {
	accs := []Access{
		{Addr: 0x1000, Gap: 5},
		{Addr: 0x2040, Write: true, Gap: 9, Tenant: 2},
		{Addr: 0x3080, Dep: true, Gap: 1},
	}
	g := &SliceGen{Lab: "rec", Accs: accs}
	first := Collect(g, len(accs))
	g.Next() // leave the cursor mid-slice
	for _, seed := range []uint64{0, 1, 0xDEADBEEF} {
		g.Reset(seed)
		for i, want := range first {
			if got := g.Next(); got != want {
				t.Fatalf("seed %d: access %d = %+v, want %+v", seed, i, got, want)
			}
		}
	}
}

// TestReaderResetRewinds checks the trace replay generator honours the
// same seed-independent rewind contract as SliceGen.
func TestReaderResetRewinds(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	accs := []Access{{Addr: 0x40, Gap: 3, Tenant: 1}, {Addr: 0x80, Write: true, Gap: 7}}
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, "rec")
	if err != nil {
		t.Fatal(err)
	}
	r.Next()
	r.Reset(99)
	for i, want := range accs {
		if got := r.Next(); got != want {
			t.Fatalf("access %d = %+v, want %+v", i, got, want)
		}
	}
}
