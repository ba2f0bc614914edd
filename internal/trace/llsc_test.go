package trace

import (
	"testing"

	"bimodal/internal/addr"
)

func TestLLSCFilterHitsAreAbsorbed(t *testing.T) {
	// Two accesses to the same line: the second hits in the LLSC and must
	// not reach the DRAM cache, its gap folding into the next miss.
	src := &SliceGen{Accs: []Access{
		{Addr: 0x1000, Gap: 10},
		{Addr: 0x1000, Gap: 20}, // LLSC hit
		{Addr: 0x2000, Gap: 30},
	}, Lab: "s"}
	f := NewLLSCFilter(src, 1<<16, 4)
	a1 := f.Next()
	if a1.Addr != 0x1000 || a1.Gap != 10 {
		t.Fatalf("first emitted: %+v", a1)
	}
	a2 := f.Next()
	if a2.Addr != 0x2000 {
		t.Fatalf("second emitted: %+v", a2)
	}
	if a2.Gap != 50 {
		t.Errorf("gap = %d, want 50 (20 absorbed + 30)", a2.Gap)
	}
	if f.Accesses != 3 || f.Misses != 2 {
		t.Errorf("counters: %d/%d", f.Misses, f.Accesses)
	}
	if f.MissRate() < 0.66 || f.MissRate() > 0.67 {
		t.Errorf("miss rate = %v", f.MissRate())
	}
}

func TestLLSCFilterMissesAreReads(t *testing.T) {
	// A store miss reaches the DRAM cache as a read fill.
	src := &SliceGen{Accs: []Access{{Addr: 0x3000, Gap: 5, Write: true}}, Lab: "s"}
	f := NewLLSCFilter(src, 1<<16, 4)
	a := f.Next()
	if a.Write {
		t.Error("miss fill must be a read")
	}
}

func TestLLSCFilterEmitsWritebacks(t *testing.T) {
	// Fill a 2-block set with dirty lines, then displace: a writeback
	// (Write = true) must follow the displacing fill.
	var accs []Access
	// 128B direct... use 2 sets x 1 way: size 128, assoc 1 -> conflicting
	// lines are multiples of 128.
	accs = append(accs,
		Access{Addr: 0, Gap: 1, Write: true},
		Access{Addr: 128, Gap: 1}, // evicts dirty line 0
	)
	f := NewLLSCFilter(&SliceGen{Accs: accs, Lab: "s"}, 128, 1)
	a1 := f.Next()
	if a1.Addr != 0 {
		t.Fatalf("first: %+v", a1)
	}
	a2 := f.Next()
	if a2.Addr != 128 || a2.Write {
		t.Fatalf("second should be the read fill of 128: %+v", a2)
	}
	a3 := f.Next()
	if !a3.Write || a3.Addr != 0 {
		t.Fatalf("third should be the writeback of line 0: %+v", a3)
	}
}

func TestLLSCFilterPreservesDependence(t *testing.T) {
	src := &SliceGen{Accs: []Access{{Addr: 0x5000, Gap: 1, Dep: true}}, Lab: "s"}
	f := NewLLSCFilter(src, 1<<16, 4)
	if !f.Next().Dep {
		t.Error("dependence flag lost")
	}
}

func TestLLSCFilterReducesIntensity(t *testing.T) {
	// Filtering a reuse-heavy stream must cut the access rate sharply.
	g := NewSynthetic(MustProfile("hmmer"), 0, 3)
	f := NewLLSCFilter(g, 4<<20, 8)
	for i := 0; i < 5000; i++ {
		a := f.Next()
		if a.Addr%LineBytes != 0 {
			t.Fatalf("unaligned address %x", a.Addr)
		}
		_ = addr.Phys(a.Addr)
	}
	if f.MissRate() > 0.9 {
		t.Errorf("miss rate %.2f: LLSC not filtering", f.MissRate())
	}
	if f.Name() != "hmmer+llsc" {
		t.Errorf("name = %s", f.Name())
	}
}
