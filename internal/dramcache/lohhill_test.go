package dramcache

import (
	"testing"

	"bimodal/internal/addr"
)

func TestLohHillCompoundAccess(t *testing.T) {
	cfg := tinyConfig()
	l := NewLohHill(cfg)
	p := addr.Phys(0x10000)
	r1 := l.Access(Request{Addr: p}, 0)
	if r1.Hit {
		t.Fatal("cold hit")
	}
	start := r1.Done + 100000
	r2 := l.Access(Request{Addr: p}, start)
	if !r2.Hit {
		t.Fatal("second access missed")
	}
	// A hit is one activation: tags (2 bursts) then data on the open row.
	rep := l.Report()
	if rep.MetaReads != 2 {
		t.Errorf("meta reads = %d, want one per access", rep.MetaReads)
	}
}

func TestLohHillWriteDirtyWriteback(t *testing.T) {
	cfg := tinyConfig()
	l := NewLohHill(cfg)
	set := 3
	now := int64(0)
	dirtyLine := addr.Phys(uint64(set) << 6)
	l.Access(Request{Addr: dirtyLine, Write: true}, now)
	// Displace the whole set.
	for i := 1; i <= lohHillWays; i++ {
		p := addr.Phys((uint64(i)*uint64(l.numSets) + uint64(set)) << 6)
		now += 2000
		l.Access(Request{Addr: p}, now)
	}
	if l.offchip.Stats().BytesWrit == 0 {
		t.Error("dirty victim never written back")
	}
}
