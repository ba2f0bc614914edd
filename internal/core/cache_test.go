package core

import (
	"testing"
	"testing/quick"
	"unsafe"

	"bimodal/internal/addr"
	"bimodal/internal/trace"
	"bimodal/internal/xrand"
)

// smallCache returns a tiny cache for directed tests: 64KB, 32 sets,
// paper-shaped states {(4,0),(3,8),(2,16)}.
func smallCache(withLocator bool) *Cache {
	p := DefaultParams(64 << 10)
	p.AdaptInterval = 64
	var wl *WayLocator
	if withLocator {
		wl = NewWayLocator(8, p.BigBlock)
	}
	return NewCache(p, wl)
}

func TestColdMissFillsBig(t *testing.T) {
	c := smallCache(true)
	out := c.Access(0x1000, false)
	if out.Hit {
		t.Fatal("cold access should miss")
	}
	if !out.PredictedBig || !out.Big {
		t.Error("fresh predictor should fill big")
	}
	if out.FillBytes != 512 {
		t.Errorf("fill bytes = %d", out.FillBytes)
	}
	if len(out.Evictions) != 0 {
		t.Errorf("cold fill evicted %d blocks", len(out.Evictions))
	}
}

func TestHitAfterFill(t *testing.T) {
	c := smallCache(true)
	c.Access(0x1000, false)
	out := c.Access(0x1000, false)
	if !out.Hit || !out.Big {
		t.Fatalf("expected big hit: %+v", out)
	}
	if !out.LocatorHit {
		t.Error("second access should hit the way locator")
	}
	// Any line within the same 512B block hits.
	out = c.Access(0x1000+448, false)
	if !out.Hit {
		t.Error("intra-block access should hit")
	}
}

func TestLocatorMissStillHits(t *testing.T) {
	c := smallCache(false) // no locator
	c.Access(0x1000, false)
	out := c.Access(0x1000, false)
	if !out.Hit || out.LocatorHit {
		t.Fatalf("expected non-locator hit: %+v", out)
	}
}

func TestWriteMarksDirtyAndWritesBack(t *testing.T) {
	c := smallCache(true)
	c.Access(0x1000, true) // write miss -> fill, sub-block 0 dirty... (0x1000 offset 0)
	c.Access(0x1000+64, true)
	// Evict by filling the same set with other tags.
	setStride := addr.Phys(c.Params().NumSets() * c.Params().BigBlock)
	var evicted *Eviction
	for i := 1; i < 50 && evicted == nil; i++ {
		out := c.Access(0x1000+addr.Phys(i)*setStride, false)
		for j := range out.Evictions {
			if out.Evictions[j].Addr == 0x1000 {
				evicted = &out.Evictions[j]
			}
		}
	}
	if evicted == nil {
		t.Fatal("dirty block never evicted")
	}
	if evicted.DirtyMask != 0b11 {
		t.Errorf("dirty mask = %b, want sub-blocks 0 and 1", evicted.DirtyMask)
	}
	if evicted.DirtyBytes() != 128 {
		t.Errorf("dirty bytes = %d, want 128 (64B granularity writebacks)", evicted.DirtyBytes())
	}
}

func TestUsedMaskTracksReferences(t *testing.T) {
	c := smallCache(true)
	c.Access(0x2000, false)
	c.Access(0x2000+128, false)
	c.Access(0x2000+256, false)
	setStride := addr.Phys(c.Params().NumSets() * c.Params().BigBlock)
	var ev *Eviction
	for i := 1; i < 50 && ev == nil; i++ {
		out := c.Access(0x2000+addr.Phys(i)*setStride, false)
		for j := range out.Evictions {
			if out.Evictions[j].Addr == 0x2000 {
				ev = &out.Evictions[j]
			}
		}
	}
	if ev == nil {
		t.Fatal("block never evicted")
	}
	if ev.UsedMask != 0b10101 {
		t.Errorf("used mask = %b, want 10101", ev.UsedMask)
	}
}

// trainSmall teaches the predictor that a given block region is sparse by
// evicting sampled ways with low utilization.
func trainSmall(c *Cache, blockID uint64) {
	for i := 0; i < 4; i++ {
		c.Predictor().Update(blockID, false)
	}
}

func TestSmallFillAfterTraining(t *testing.T) {
	c := smallCache(true)
	// Move the global state to allow smalls.
	c.ForceGlobalState(State{3, 8})
	p := addr.Phys(0x3000)
	trainSmall(c, uint64(p)>>9)
	out := c.Access(p, false)
	if out.PredictedBig {
		t.Fatal("trained predictor should predict small")
	}
	if out.FillBytes != 64 {
		t.Errorf("small fill bytes = %d", out.FillBytes)
	}
	if out.Big {
		t.Error("block should be placed in a small way")
	}
	// The set converted toward the global state.
	st := c.SetState(out.SetIndex)
	if st.Y == 0 {
		t.Errorf("set state %v should hold small ways", st)
	}
	// Re-access hits the small way via the locator.
	out2 := c.Access(p, false)
	if !out2.Hit || out2.Big || !out2.LocatorHit {
		t.Errorf("small re-access: %+v", out2)
	}
	// The adjacent line is NOT resident (only 64B was fetched).
	out3 := c.Access(p+64, false)
	if out3.Hit {
		t.Error("adjacent line should miss after a small fill")
	}
}

func TestFallbackBigWhenNoSmallWays(t *testing.T) {
	c := smallCache(true)
	// Global state stays (4,0); predictor says small.
	p := addr.Phys(0x4200) // set 1: not a leader set
	trainSmall(c, uint64(p)>>9)
	out := c.Access(p, false)
	if out.PredictedBig {
		t.Fatal("prediction should be small")
	}
	if !out.FallbackBig || !out.Big || out.FillBytes != 512 {
		t.Errorf("expected big fallback: %+v", out)
	}
	if c.Stats.FallbackBig != 1 {
		t.Error("fallback not counted")
	}
}

func TestConvertToBigEvictsEightSmalls(t *testing.T) {
	c := smallCache(true)
	c.ForceGlobalState(State{2, 16})
	// Fill one set with 16 small blocks drawn from two different tags that
	// both map to set 0 (consecutive 512B blocks map to consecutive sets,
	// so the second tag is one whole set-stride away).
	base := addr.Phys(0x8200) // set 1: not a leader set
	setStride := addr.Phys(c.Params().NumSets() * c.Params().BigBlock)
	set := c.setOf(base)
	var lines []addr.Phys
	for i := 0; i < 8; i++ {
		lines = append(lines, base+addr.Phys(i*64), base+setStride+addr.Phys(i*64))
	}
	for _, p := range lines {
		trainSmall(c, uint64(p)>>9)
	}
	for i, p := range lines {
		out := c.Access(p, false)
		if out.Big {
			t.Fatalf("access %d filled big", i)
		}
		if out.SetIndex != set {
			t.Fatalf("access %d landed in set %d, want %d", i, out.SetIndex, set)
		}
	}
	st := c.SetState(set)
	if st != (State{2, 16}) {
		t.Fatalf("set state = %v, want (2,16)", st)
	}
	// Now demand a big fill with the global target at all-big: the set must
	// convert, evicting 8 small ways at once.
	c.ForceGlobalState(State{4, 0})
	other := base + 2*setStride // same set, third tag
	out := c.Access(other, false)
	if !out.Big {
		t.Fatal("big-predicted fill expected")
	}
	smallEv := 0
	for _, e := range out.Evictions {
		if !e.Big {
			smallEv++
		}
	}
	if smallEv != 8 {
		t.Errorf("evicted %d small ways, want 8 (Table II)", smallEv)
	}
	if got := c.SetState(set); got != (State{3, 8}) {
		t.Errorf("set state after conversion = %v, want (3,8)", got)
	}
}

func TestConvertToSmallEvictsOneBig(t *testing.T) {
	c := smallCache(true)
	base := addr.Phys(0x10200) // set 1: not a leader set
	set := c.setOf(base)
	// Fill the set with 4 big blocks.
	setStride := addr.Phys(c.Params().NumSets() * c.Params().BigBlock)
	for i := 0; i < 4; i++ {
		c.Access(base+addr.Phys(i)*setStride, false)
	}
	if got := c.SetState(set); got != (State{4, 0}) {
		t.Fatalf("set state = %v", got)
	}
	// Global wants smalls; a small-predicted miss converts a big way.
	c.ForceGlobalState(State{3, 8})
	p := base + addr.Phys(40)*setStride
	trainSmall(c, uint64(p)>>9)
	out := c.Access(p, false)
	if out.Big {
		t.Fatal("should fill small")
	}
	bigEv := 0
	for _, e := range out.Evictions {
		if e.Big {
			bigEv++
		}
	}
	if bigEv != 1 {
		t.Errorf("evicted %d big ways, want 1 (Table II)", bigEv)
	}
	if got := c.SetState(set); got != (State{3, 8}) {
		t.Errorf("set state = %v, want (3,8)", got)
	}
}

func TestInsertBigSubsumesResidentSmalls(t *testing.T) {
	c := smallCache(true)
	c.ForceGlobalState(State{3, 8})
	p := addr.Phys(0x5000)
	trainSmall(c, uint64(p)>>9)
	c.Access(p, true) // small dirty fill
	// Re-train big and miss on another line of the same 512B block.
	for i := 0; i < 4; i++ {
		c.Predictor().Update(uint64(p)>>9, true)
	}
	out := c.Access(p+128, false)
	if !out.Big {
		t.Fatal("expected big fill")
	}
	// The resident small line must have been evicted (written back dirty).
	foundSmall := false
	for _, e := range out.Evictions {
		if !e.Big && e.Addr == p {
			foundSmall = true
			if e.DirtyMask == 0 {
				t.Error("subsumed small should carry its dirty bit")
			}
		}
	}
	if !foundSmall {
		t.Error("resident small line not evicted on big fill of same block")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestStatsConsistency(t *testing.T) {
	c := smallCache(true)
	g := trace.NewSynthetic(trace.MustProfile("soplex"), 0, 3)
	for i := 0; i < 20000; i++ {
		a := g.Next()
		// Constrain to the tiny cache's reach: fold into 1MB.
		c.Access(a.Addr&(1<<20-1), a.Write)
	}
	s := c.Stats
	if s.Accesses != 20000 {
		t.Fatalf("accesses = %d", s.Accesses)
	}
	if s.Hits+s.MissPredBig+s.MissPredSml != s.Accesses {
		t.Errorf("hits %d + misses %d+%d != %d", s.Hits, s.MissPredBig, s.MissPredSml, s.Accesses)
	}
	if s.HitsBig+s.HitsSmall != s.Hits {
		t.Errorf("hit split %d+%d != %d", s.HitsBig, s.HitsSmall, s.Hits)
	}
	if s.HitRate() <= 0 || s.HitRate() >= 1 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInvariantsUnderRandomStorm(t *testing.T) {
	// Property: under arbitrary access sequences the structural invariants
	// hold and locator hits are always correct (Access panics otherwise).
	c := smallCache(true)
	rng := xrand.New(99)
	f := func(seed uint64) bool {
		r := xrand.New(seed ^ rng.Uint64())
		for i := 0; i < 500; i++ {
			p := addr.Phys(r.Uint64n(1<<21)) &^ 63
			c.Access(p, r.Bool(0.3))
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGlobalAdaptationEndToEnd(t *testing.T) {
	// A sparse random workload over a footprint larger than the cache must
	// drive the global state away from all-big.
	p := DefaultParams(64 << 10)
	p.AdaptInterval = 2048
	p.PredictorBits = 6 // heavy counter sharing at this tiny scale
	c := NewCache(p, NewWayLocator(8, p.BigBlock))
	r := xrand.New(5)
	for i := 0; i < 100000; i++ {
		c.Access(addr.Phys(r.Uint64n(16<<20))&^63, false)
	}
	if c.GlobalState() == (State{4, 0}) {
		t.Errorf("global state stayed all-big under sparse random traffic")
	}
	if c.Stats.SmallFraction() <= 0 {
		t.Error("no accesses went to small blocks")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestStreamingStaysBig(t *testing.T) {
	// A pure streaming workload keeps the state all-big and yields high
	// utilization at eviction.
	p := DefaultParams(64 << 10)
	p.AdaptInterval = 2048
	c := NewCache(p, NewWayLocator(8, p.BigBlock))
	a := addr.Phys(0)
	for i := 0; i < 100000; i++ {
		c.Access(a&(4<<20-1), false)
		a += 64
	}
	if c.GlobalState() != (State{4, 0}) {
		t.Errorf("global state = %v under pure streaming", c.GlobalState())
	}
	if frac := c.Stats.SmallFraction(); frac > 0.02 {
		t.Errorf("small fraction = %v under streaming", frac)
	}
}

func TestContains(t *testing.T) {
	c := smallCache(true)
	if c.Contains(0x1000) {
		t.Error("empty cache contains nothing")
	}
	c.Access(0x1000, false)
	if !c.Contains(0x1000) || !c.Contains(0x1000+256) {
		t.Error("big block lines should be contained")
	}
	if c.Contains(0x1000 + 512) {
		t.Error("next block should not be contained")
	}
}

func TestWastedBytesAccounting(t *testing.T) {
	c := smallCache(true)
	// Touch one line of a big block, then evict it: 7 sub-blocks wasted.
	c.Access(0x0, false)
	setStride := addr.Phys(c.Params().NumSets() * c.Params().BigBlock)
	for i := 1; i < 50; i++ {
		c.Access(addr.Phys(i)*setStride, false)
		if c.Stats.WastedFetchBytes > 0 {
			break
		}
	}
	if c.Stats.WastedFetchBytes%448 != 0 && c.Stats.WastedFetchBytes == 0 {
		t.Errorf("wasted bytes = %d", c.Stats.WastedFetchBytes)
	}
}

func TestCacheAccessors(t *testing.T) {
	c := smallCache(true)
	if c.Locator() == nil || c.Predictor() == nil || c.TrackerHist() == nil {
		t.Error("accessors returned nil")
	}
	if c.Params().BigBlock != 512 {
		t.Error("params accessor wrong")
	}
	if c.UtilizationHist() == nil {
		t.Error("histogram accessor nil")
	}
	if smallCache(false).Locator() != nil {
		t.Error("locator should be nil when disabled")
	}
}

// TestStateLayout pins the resident layout that every set and locator
// entry of every simulated cache pays for: a 16-byte big way and locator
// entry, an 8-byte small way, a set header of at most 32 bytes, and flat
// way arrays of 16·MaxBig + 8·MaxSmall bytes per set.
func TestStateLayout(t *testing.T) {
	p := DefaultParams(1 << 20)
	c := NewCache(p, nil)
	if got := unsafe.Sizeof(wlEntry{}); got != 16 {
		t.Errorf("unsafe.Sizeof(wlEntry{}) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(c.big[0]); got != 16 {
		t.Errorf("big way is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(c.small[0]); got != 8 {
		t.Errorf("small way is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(c.sets[0]); got > 32 {
		t.Errorf("set header is %d bytes, want <= 32", got)
	}
	got := uintptr(cap(c.big))*unsafe.Sizeof(c.big[0]) + uintptr(cap(c.small))*unsafe.Sizeof(c.small[0])
	want := uintptr(p.NumSets()) * (16*uintptr(p.MaxBig()) + 8*uintptr(p.MaxSmall()))
	if got != want {
		t.Errorf("way arrays hold %d bytes, want %d", got, want)
	}
}
