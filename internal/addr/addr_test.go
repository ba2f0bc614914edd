package addr

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFieldsRoundTrip(t *testing.T) {
	f := NewFields(512, 1<<16) // 512B blocks, 64K sets (128MB / 2KB-set layout uses 512B block fields)
	cases := []Phys{0, 511, 512, 0xdeadbeef, Mask}
	for _, p := range cases {
		tag, set, off := f.Tag(p), f.Set(p), f.Offset(p)
		base := f.Rebuild(tag, set)
		if got := base + Phys(off); got != p&Mask|p&^Mask {
			// Rebuild drops bits above the address space only if input had them.
			if got != p {
				t.Errorf("round trip %x: got %x", p, got)
			}
		}
	}
}

func TestFieldsOffsetsAndSets(t *testing.T) {
	f := NewFields(512, 64)
	if f.OffsetBits() != 9 {
		t.Fatalf("offset bits = %d, want 9", f.OffsetBits())
	}
	if f.SetBits() != 6 {
		t.Fatalf("set bits = %d, want 6", f.SetBits())
	}
	p := Phys(0b1010_111111_101010101)
	if f.Offset(p) != 0b101010101 {
		t.Errorf("offset = %b", f.Offset(p))
	}
	if f.Set(p) != 0b111111 {
		t.Errorf("set = %b", f.Set(p))
	}
	if f.Tag(p) != 0b1010 {
		t.Errorf("tag = %b", f.Tag(p))
	}
}

func TestFieldsPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two block size")
		}
	}()
	NewFields(100, 64)
}

func TestBlockTruncation(t *testing.T) {
	p := Phys(0x12345)
	if p.Line64() != 0x12340 {
		t.Errorf("Line64 = %x", p.Line64())
	}
	if p.Block(512) != 0x12200 {
		t.Errorf("Block(512) = %x", p.Block(512))
	}
}

func TestLog2(t *testing.T) {
	for i := uint(0); i < 40; i++ {
		if Log2(1<<i) != i {
			t.Errorf("Log2(1<<%d) = %d", i, Log2(1<<i))
		}
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	il := NewInterleave(Geometry{Channels: 2, Ranks: 1, BanksPerRnk: 8, PageBytes: 2048})
	f := func(raw uint64) bool {
		p := Phys(raw) & Mask
		l := il.Map(p)
		return il.Unmap(l) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInterleaveSpreadsPagesAcrossChannels(t *testing.T) {
	il := NewInterleave(Geometry{Channels: 2, Ranks: 1, BanksPerRnk: 8, PageBytes: 2048})
	a := il.Map(0)
	b := il.Map(2048)
	if a.Channel == b.Channel {
		t.Errorf("consecutive pages map to same channel %d", a.Channel)
	}
	// Same page stays in one row.
	c := il.Map(2047)
	if c.Channel != a.Channel || c.Row != a.Row || c.Bank != a.Bank {
		t.Errorf("intra-page address moved banks: %+v vs %+v", a, c)
	}
	if c.Column != 2047 {
		t.Errorf("column = %d", c.Column)
	}
}

func TestInterleaveBankCycle(t *testing.T) {
	g := Geometry{Channels: 2, Ranks: 2, BanksPerRnk: 8, PageBytes: 2048}
	il := NewInterleave(g)
	seen := map[[2]int]bool{}
	// Walking pages should visit every (channel,rank,bank) combination before
	// reusing one row distance away.
	for i := uint64(0); i < uint64(g.TotalBanks()); i++ {
		p := Phys(i * g.PageBytes)
		l := il.Map(p)
		seen[[2]int{l.Channel, l.Bank}] = true
		// Row-rank-bank-mc-column: above the channel bit come three bank
		// bits, then the rank bit. Bank is rank-major over both.
		rank, bank := int(i>>4&1), int(i>>1&7)
		if l.Bank != rank*g.BanksPerRnk+bank || g.Rank(l.Bank) != rank {
			t.Errorf("page %d: bank %d, want rank %d bank %d rank-major", i, l.Bank, rank, bank)
		}
		if got := il.Unmap(l); got != p {
			t.Errorf("page %d: Unmap(%+v) = %#x, want %#x", i, l, got, p)
		}
	}
	if len(seen) != g.TotalBanks() {
		t.Errorf("visited %d distinct banks, want %d", len(seen), g.TotalBanks())
	}
	f := func(raw uint64) bool {
		p := Phys(raw) & Mask
		return il.Unmap(il.Map(p)) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestLocationShape pins Location at four fields and 32 bytes. The Go
// compiler's SSA backend keeps a struct in registers only up to four
// fields and 32 bytes (ssa.CanSSA's limits); a fifth field would silently
// spill every Location to the stack and block-copy it at each call of
// the DRAM access path.
func TestLocationShape(t *testing.T) {
	if got := unsafe.Sizeof(Location{}); got > 32 {
		t.Errorf("unsafe.Sizeof(Location{}) = %d, want <= 32", got)
	}
	if got := reflect.TypeOf(Location{}).NumField(); got > 4 {
		t.Errorf("Location has %d fields, want <= 4", got)
	}
}
