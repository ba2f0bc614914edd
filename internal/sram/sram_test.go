package sram

import (
	"testing"
	"testing/quick"

	"bimodal/internal/addr"
)

func small() *Cache {
	return New(Config{SizeBytes: 4096, BlockSize: 64, Assoc: 4}) // 16 sets
}

func TestMissThenHit(t *testing.T) {
	c := small()
	hit, _ := c.Access(0x1000, false)
	if hit {
		t.Fatal("cold access should miss")
	}
	c.Insert(0x1000, false, 0)
	hit, wi := c.Access(0x1000, false)
	if !hit || wi < 0 {
		t.Fatal("access after insert should hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", c.HitRate())
	}
}

func TestWriteSetsDirty(t *testing.T) {
	c := small()
	c.Insert(0x1000, false, 0)
	c.Access(0x1000, true)
	_, dirty := c.Invalidate(0x1000)
	if !dirty {
		t.Error("write should have set dirty bit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	setStride := addr.Phys(64 * 16) // same set every stride
	// Fill 4 ways of set 0.
	for i := 0; i < 4; i++ {
		p := addr.Phys(i) * setStride
		c.Insert(p, false, 0)
		c.Access(p, false)
	}
	// Touch block 0 so block 1 is LRU.
	c.Access(0, false)
	v := c.Insert(4*setStride, false, 0)
	if !v.Valid {
		t.Fatal("expected an eviction")
	}
	if v.Addr != setStride {
		t.Errorf("victim = %x, want %x (LRU)", v.Addr, setStride)
	}
}

func TestVictimCarriesDirtyAndAux(t *testing.T) {
	c := New(Config{SizeBytes: 128, BlockSize: 64, Assoc: 1}) // 2 sets
	c.Insert(0, true, 0xabc)
	v := c.Insert(128, false, 0) // same set (stride 128 with 2 sets of 64B)
	if !v.Valid || !v.Dirty || v.Aux != 0xabc || v.Addr != 0 {
		t.Errorf("victim = %+v", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(0x40, false, 0)
	present, dirty := c.Invalidate(0x40)
	if !present || dirty {
		t.Errorf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if hit, _ := c.Access(0x40, false); hit {
		t.Error("block still present after invalidate")
	}
	present, _ = c.Invalidate(0x9999000)
	if present {
		t.Error("invalidate of absent block reported present")
	}
}

func TestAuxRoundTrip(t *testing.T) {
	c := small()
	c.Insert(0x80, false, 7)
	if aux, ok := c.Aux(0x80); !ok || aux != 7 {
		t.Errorf("aux = %d ok=%v", aux, ok)
	}
	if !c.SetAux(0x80, 9) {
		t.Fatal("SetAux failed")
	}
	if aux, _ := c.Aux(0x80); aux != 9 {
		t.Errorf("aux after set = %d", aux)
	}
	if _, ok := c.Aux(0xdead000); ok {
		t.Error("aux of absent block reported ok")
	}
	if c.SetAux(0xdead000, 1) {
		t.Error("SetAux of absent block reported ok")
	}
}

func TestMRUIndex(t *testing.T) {
	c := small()
	stride := addr.Phys(64 * 16)
	for i := 0; i < 4; i++ {
		c.Insert(addr.Phys(i)*stride, false, 0)
		c.Access(addr.Phys(i)*stride, false)
	}
	// Most recently accessed is block 3.
	if got := c.MRUIndex(3 * stride); got != 0 {
		t.Errorf("MRUIndex(newest) = %d", got)
	}
	if got := c.MRUIndex(0); got != 3 {
		t.Errorf("MRUIndex(oldest) = %d", got)
	}
	if got := c.MRUIndex(99 * stride); got != -1 {
		t.Errorf("MRUIndex(absent) = %d", got)
	}
}

func TestWaysOfOrdering(t *testing.T) {
	c := small()
	stride := addr.Phys(64 * 16)
	for i := 0; i < 4; i++ {
		c.Insert(addr.Phys(i)*stride, false, uint64(i))
		c.Access(addr.Phys(i)*stride, false)
	}
	ways := c.WaysOf(0)
	if len(ways) != 4 {
		t.Fatalf("len = %d", len(ways))
	}
	if ways[0].Aux != 3 || ways[3].Aux != 0 {
		t.Errorf("MRU-first ordering wrong: %+v", ways)
	}
}

func TestInsertIsIdempotentOnLookup(t *testing.T) {
	// Property: after Insert(p), Lookup(p) always finds it.
	c := New(Config{SizeBytes: 1 << 16, BlockSize: 64, Assoc: 8})
	f := func(raw uint64) bool {
		p := addr.Phys(raw) & addr.Mask
		c.Insert(p, false, 0)
		return c.Lookup(p) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCapacityProperty(t *testing.T) {
	// Property: the number of resident distinct blocks never exceeds
	// capacity in blocks.
	c := New(Config{SizeBytes: 2048, BlockSize: 64, Assoc: 2}) // 32 blocks
	inserted := map[addr.Phys]bool{}
	for i := 0; i < 500; i++ {
		p := addr.Phys(i*64*7) & addr.Mask
		c.Insert(p, false, 0)
		inserted[p.Block(64)] = true
	}
	resident := 0
	for p := range inserted {
		if c.Lookup(p) >= 0 {
			resident++
		}
	}
	if resident > 32 {
		t.Errorf("resident %d exceeds capacity 32", resident)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid config")
		}
	}()
	New(Config{SizeBytes: 100, BlockSize: 64, Assoc: 3})
}

func TestResetStats(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("ResetStats failed")
	}
	if c.HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestAccessorMethods(t *testing.T) {
	c := small()
	if c.NumSets() != 16 {
		t.Errorf("NumSets = %d", c.NumSets())
	}
	if c.Config().Assoc != 4 {
		t.Error("Config accessor wrong")
	}
	if c.Fields().BlockSize() != 64 {
		t.Error("Fields accessor wrong")
	}
}
