package core

import (
	"fmt"
	"math/bits"

	"bimodal/internal/addr"
	"bimodal/internal/xrand"
)

// Eviction describes a block displaced by a fill; the timing layer turns
// dirty sub-blocks into 64B off-chip writebacks (Section III-B5).
type Eviction struct {
	// Big reports the victim's granularity.
	Big bool
	// Way is the way number the victim occupied (for data-column
	// addressing of writeback reads).
	Way int
	// Addr is the victim block's base address.
	Addr addr.Phys
	// DirtyMask has one bit per 64B sub-block (bit 0 only, for small
	// victims).
	DirtyMask uint32
	// UsedMask has one bit per referenced 64B sub-block since fill.
	UsedMask uint32
}

// DirtyBytes returns the writeback volume for the eviction.
func (e Eviction) DirtyBytes() int64 { return int64(popcount(e.DirtyMask)) * SmallBlock }

// Outcome reports everything the timing layer needs about one access.
type Outcome struct {
	// SetIndex locates the set (for data/metadata DRAM placement).
	SetIndex uint64
	// LocatorHit reports that the way locator supplied the way, so no
	// DRAM metadata read is needed.
	LocatorHit bool
	// Hit reports a DRAM cache hit.
	Hit bool
	// Big reports the granularity of the way involved: the hit way, or
	// the filled way on a miss.
	Big bool
	// Way is the way number of the hit or filled block.
	Way int
	// PredictedBig is the size predictor's decision (misses only).
	PredictedBig bool
	// FallbackBig marks a small-predicted miss that had to be inserted
	// big because the set and global state hold no small ways.
	FallbackBig bool
	// FillBytes is the off-chip fetch size on a miss (0 on hits).
	FillBytes int64
	// Evictions lists displaced blocks (misses only). The slice aliases a
	// cache-owned scratch buffer that is reused by the next Access: consume
	// or copy it before calling Access again.
	Evictions []Eviction
}

// CacheStats aggregates functional statistics.
type CacheStats struct {
	Accesses     int64
	Hits         int64
	HitsBig      int64
	HitsSmall    int64
	MissPredBig  int64
	MissPredSml  int64
	FallbackBig  int64
	FetchedBytes int64
	// WastedFetchBytes counts fetched-but-never-referenced sub-block
	// bytes, measured at eviction (the paper's wasted off-chip bandwidth).
	WastedFetchBytes int64
	WritebackBytes   int64
	Evictions        int64
	StateChanges     int64 // per-set state transitions
}

// HitRate returns the cache hit rate.
func (s *CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// SmallFraction returns the fraction of accesses served by (or filled
// into) small blocks — Figure 10's metric.
func (s *CacheStats) SmallFraction() float64 {
	if s.Accesses == 0 {
		return 0
	}
	small := s.HitsSmall + s.MissPredSml - s.FallbackBig
	return float64(small) / float64(s.Accesses)
}

// bigWay is one big way's metadata (16 bytes). Whether it holds a block is
// the set's validBig bit alone; an evicted way is zeroed.
type bigWay struct {
	tag   uint64
	dirty uint32
	used  uint32
}

// cacheSet is a set's state and its occupancy bitmasks: bit w of validBig
// (validSmall) is set when big (small) way w holds a block, and bit w of
// dirtySmall when small way w has been written since its fill. The masks
// are the only validity and small-way dirty state, so the hot paths scan
// set bits instead of walking every way. The ways themselves live in the
// cache's flat big and small arrays.
type cacheSet struct {
	st         State
	validBig   uint32
	validSmall uint32
	dirtySmall uint32
}

// Cache is the functional Bi-Modal cache: it tracks residency, set states,
// utilization and dirtiness, and drives the way locator, size predictor
// and global adaptation. Timing is layered on top by internal/dramcache.
type Cache struct {
	// params is construction-time geometry; snapshots reconstruct it from
	// Config rather than serializing it.
	params Params //bmlint:nosnapshot
	sets   []cacheSet
	// big and small hold every set's ways, set-major: set si's big way w
	// is big[si*MaxBig+w], and its small way w is small[si*MaxSmall+w],
	// the full 64B line identity (address >> 6) of the line it holds.
	big     []bigWay
	small   []uint64
	locator *WayLocator // nil disables way location (Bi-Modal-Only ablation)
	pred    *SizePredictor
	tracker *Tracker
	global  *GlobalState
	rng     *xrand.Rand

	// Derived constants, precomputed so the access path never re-derives
	// them from Params (whose value-receiver helpers copy the struct).
	// Pure functions of params: preserved across Reset, rebuilt (not
	// deserialized) on restore.
	offsetBits uint   //bmlint:resetconst //bmlint:nosnapshot
	setBits    uint   //bmlint:resetconst //bmlint:nosnapshot
	setMask    uint64 //bmlint:resetconst //bmlint:nosnapshot — NumSets - 1
	subMask    uint64 //bmlint:resetconst //bmlint:nosnapshot — SubBlocks - 1
	subShift   uint   //bmlint:resetconst //bmlint:nosnapshot — offsetBits - 6: line ID -> big block ID
	subBlocks  int    //bmlint:resetconst //bmlint:nosnapshot
	minBig     int    //bmlint:resetconst //bmlint:nosnapshot
	maxBig     int    //bmlint:resetconst //bmlint:nosnapshot
	maxSmall   int    //bmlint:resetconst //bmlint:nosnapshot
	bigBlock   uint64 //bmlint:resetconst //bmlint:nosnapshot

	// scratch backs Outcome.Evictions; it is truncated at every Access and
	// never shrinks, so the miss path performs no allocations. Transient
	// between accesses, so never snapshotted.
	scratch []Eviction //bmlint:nosnapshot

	// Stats holds the functional counters.
	Stats CacheStats
}

// NewCache builds a Bi-Modal cache. locator may be nil to disable way
// location (every access then needs a DRAM tag read — the Bi-Modal-Only
// configuration of Figure 8a).
func NewCache(p Params, locator *WayLocator) *Cache {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	pred := NewSizePredictor(p.PredictorBits)
	allBig := State{X: p.MaxBig(), Y: 0}
	c := &Cache{
		params:     p,
		sets:       make([]cacheSet, p.NumSets()),
		big:        make([]bigWay, int(p.NumSets())*p.MaxBig()),
		small:      make([]uint64, int(p.NumSets())*p.MaxSmall()),
		locator:    locator,
		pred:       pred,
		tracker:    NewTracker(p, pred),
		global:     NewGlobalState(p),
		rng:        xrand.New(p.Seed + 0xb1d0),
		offsetBits: addr.Log2(p.BigBlock),
		setBits:    addr.Log2(p.NumSets()),
		setMask:    p.NumSets() - 1,
		subMask:    uint64(p.SubBlocks() - 1),
		subShift:   addr.Log2(p.BigBlock) - 6,
		subBlocks:  p.SubBlocks(),
		minBig:     p.MinBig,
		maxBig:     p.MaxBig(),
		maxSmall:   p.MaxSmall(),
		bigBlock:   p.BigBlock,
		scratch:    make([]Eviction, 0, p.MaxAssoc()+1),
	}
	for i := range c.sets {
		c.sets[i].st = allBig
	}
	return c
}

// Reset returns the cache to its just-constructed state in place, reusing
// every metadata backing array, and reports whether it could. Only the Seed
// may differ from the construction parameters: any other difference changes
// geometry or policy sizing and Reset declines (returns false) so the caller
// rebuilds via NewCache instead. On success every set is back to the all-big
// state with no valid ways, the locator, predictor, tracker and global
// adapter are reset, the victim rng is re-seeded and statistics are cleared.
//
//bmlint:hotpath
func (c *Cache) Reset(p Params) bool {
	a, b := p, c.params
	a.Seed, b.Seed = 0, 0
	if a != b {
		return false
	}
	c.params = p
	allBig := State{X: p.MaxBig(), Y: 0}
	for i := range c.sets {
		c.sets[i] = cacheSet{st: allBig}
	}
	clear(c.big)
	clear(c.small)
	if c.locator != nil {
		c.locator.Reset()
	}
	c.pred.Reset()
	c.tracker.Reset()
	c.global.Reset()
	c.rng.Seed(p.Seed + 0xb1d0)
	c.scratch = c.scratch[:0]
	c.Stats = CacheStats{}
	return true
}

// Params returns the configuration.
func (c *Cache) Params() Params { return c.params }

// Locator returns the way locator (nil when disabled).
func (c *Cache) Locator() *WayLocator { return c.locator }

// Predictor returns the size predictor.
func (c *Cache) Predictor() *SizePredictor { return c.pred }

// UtilizationHist returns the tracker's evicted-way utilization histogram
// (Figure 2's data).
func (c *Cache) UtilizationHist() interface{ Fraction(int) float64 } { return c.tracker.Hist }

// TrackerHist exposes the raw histogram for experiment drivers.
func (c *Cache) TrackerHist() *Tracker { return c.tracker }

// GlobalState returns the current cache-wide (X_glob, Y_glob).
func (c *Cache) GlobalState() State { return c.global.State() }

// ForceGlobalState pins the global target (ablations and tests).
func (c *Cache) ForceGlobalState(s State) { c.global.ForceState(s) }

// field helpers ------------------------------------------------------------

func (c *Cache) blockID(p addr.Phys) uint64 { return uint64(p) >> c.offsetBits }
func (c *Cache) setOf(p addr.Phys) uint64   { return c.blockID(p) & c.setMask }
func (c *Cache) tagOf(p addr.Phys) uint64   { return c.blockID(p) >> c.setBits }
func (c *Cache) subOf(p addr.Phys) uint     { return uint((uint64(p) >> 6) & c.subMask) }
func lineID(p addr.Phys) uint64             { return uint64(p) >> 6 }

// bigAddr reconstructs a big block's base address.
func (c *Cache) bigAddr(tag, set uint64) addr.Phys {
	return addr.Phys(tag<<(c.offsetBits+c.setBits) | set<<c.offsetBits)
}

// Contains reports whether the 64B line at p is resident (no state change).
func (c *Cache) Contains(p addr.Phys) bool {
	si := c.setOf(p)
	s := &c.sets[si]
	tag, bb := c.tagOf(p), int(si)*c.maxBig
	for m := s.validBig; m != 0; m &= m - 1 {
		if c.big[bb+bits.TrailingZeros32(m)].tag == tag {
			return true
		}
	}
	ln, sb := lineID(p), int(si)*c.maxSmall
	for m := s.validSmall; m != 0; m &= m - 1 {
		if c.small[sb+bits.TrailingZeros32(m)] == ln {
			return true
		}
	}
	return false
}

// Access performs one 64B-line access and returns the outcome. write marks
// stores (sets dirty state).
//
//bmlint:hotpath
func (c *Cache) Access(p addr.Phys, write bool) Outcome {
	c.Stats.Accesses++
	c.scratch = c.scratch[:0]
	si := c.setOf(p)
	s := &c.sets[si]
	out := Outcome{SetIndex: si}

	// 1. Way locator. A locator hit is always correct by construction
	// (Section III-C1); the assertion enforces that invariant.
	if c.locator != nil {
		if h, ok := c.locator.Lookup(p); ok {
			if !c.holds(s, si, p, h) {
				locatorMispredicted(s, p, h)
			}
			out.LocatorHit, out.Hit, out.Big, out.Way = true, true, h.Big, h.Way
			c.touchHit(s, si, p, h.Big, h.Way, write)
			c.noteInterval()
			return out
		}
	}

	// 2. Tag search over the occupied ways only.
	tag, bb := c.tagOf(p), int(si)*c.maxBig
	for m := s.validBig; m != 0; m &= m - 1 {
		w := bits.TrailingZeros32(m)
		if c.big[bb+w].tag == tag {
			out.Hit, out.Big, out.Way = true, true, w
			c.touchHit(s, si, p, true, w, write)
			if c.locator != nil {
				c.locator.Insert(p, true, w)
			}
			c.noteInterval()
			return out
		}
	}
	ln, sb := lineID(p), int(si)*c.maxSmall
	for m := s.validSmall; m != 0; m &= m - 1 {
		w := bits.TrailingZeros32(m)
		if c.small[sb+w] == ln {
			out.Hit, out.Big, out.Way = true, false, w
			c.touchHit(s, si, p, false, w, write)
			if c.locator != nil {
				c.locator.Insert(p, false, w)
			}
			c.noteInterval()
			return out
		}
	}

	// 3. Miss: predict, allocate per Table II, fill.
	c.fill(s, si, p, write, &out)
	c.noteInterval()
	return out
}

// noteInterval advances the adaptation interval.
func (c *Cache) noteInterval() { c.global.NoteAccess() }

// locatorMispredicted panics: the way locator returned a way that does not
// hold the block, which the design guarantees never happens.
func locatorMispredicted(s *cacheSet, p addr.Phys, h Hit) {
	panic(fmt.Sprintf("core: way locator mispredicted %x -> big=%v way=%d (set state %v)", p, h.Big, h.Way, s.st))
}

// holds reports whether the way h names in set si holds p's block at h's
// granularity.
func (c *Cache) holds(s *cacheSet, si uint64, p addr.Phys, h Hit) bool {
	if h.Big {
		return h.Way < s.st.X && s.validBig>>uint(h.Way)&1 != 0 && c.big[int(si)*c.maxBig+h.Way].tag == c.tagOf(p)
	}
	return h.Way < s.st.Y && s.validSmall>>uint(h.Way)&1 != 0 && c.small[int(si)*c.maxSmall+h.Way] == lineID(p)
}

// touchHit updates hit statistics and the dirty/used masks.
func (c *Cache) touchHit(s *cacheSet, si uint64, p addr.Phys, big bool, way int, write bool) {
	c.Stats.Hits++
	if big {
		c.Stats.HitsBig++
		b := &c.big[int(si)*c.maxBig+way]
		bit := uint32(1) << c.subOf(p)
		b.used |= bit
		if write {
			b.dirty |= bit
		}
	} else {
		c.Stats.HitsSmall++
		if write {
			s.dirtySmall |= 1 << uint(way)
		}
	}
}

// fill implements the miss path: Table II allocation/replacement.
//
// Sampled sets are leader sets in the set-sampling sense: they always
// allocate at big granularity so the tracker measures every region's true
// spatial utilization, unbiased by the predictor's current opinion. (The
// paper's tracker "monitors the utilization of all the big blocks in these
// sampled sets", which requires the sampled sets to hold big blocks.)
func (c *Cache) fill(s *cacheSet, si uint64, p addr.Phys, write bool, out *Outcome) {
	pred := c.pred.Predict(c.blockID(p))
	if c.maxSmall == 0 {
		pred = true // fixed big-block configuration
	}
	// Demand counters record the predictor's opinion; the allocation is
	// forced big in leader sets so the tracker stays unbiased.
	c.global.NoteMiss(pred)
	predBig := pred || c.tracker.Sampled(si)
	out.PredictedBig = predBig
	if predBig {
		c.Stats.MissPredBig++
	} else {
		c.Stats.MissPredSml++
	}

	glob := c.global.State()
	switch {
	case predBig && s.st.X < glob.X:
		// Set holds more smalls than the target: reclaim one big slot by
		// evicting its small ways, insert the big block there.
		c.convertToBig(s, si, out)
		c.insertBig(s, si, p, write, s.st.X-1, out)
	case predBig:
		way := c.victimBig(s, si, p, out)
		c.insertBig(s, si, p, write, way, out)
	case !predBig && s.st.X > glob.X && s.st.X > c.minBig:
		// Set holds more bigs than the target: evict a big way and carve
		// it into small ways.
		c.convertToSmall(s, si, out)
		c.insertSmall(s, si, p, write, s.st.Y-c.subBlocks, out)
	case !predBig && s.st.Y > 0:
		way := c.victimSmall(s, si, p, out)
		c.insertSmall(s, si, p, write, way, out)
	default:
		// Predicted small but neither the set nor the target state holds
		// small ways: fall back to a big fill (self-corrects through the
		// demand counters at the next interval).
		out.FallbackBig = true
		c.Stats.FallbackBig++
		way := c.victimBig(s, si, p, out)
		c.insertBig(s, si, p, write, way, out)
	}
	out.Evictions = c.scratch
}

// victimBig picks a big way to replace: an invalid way if one exists,
// otherwise random-not-recent with respect to the way locator's protected
// ways (Section III-D1).
func (c *Cache) victimBig(s *cacheSet, si uint64, p addr.Phys, out *Outcome) int {
	if w := invalidWay(s.validBig, s.st.X); w >= 0 {
		return w
	}
	var protected uint32
	if c.locator != nil {
		protected, _ = c.locator.ProtectedWays(p, c.setBits, si)
	}
	w := c.randomWay(s.st.X, protected)
	c.evictBig(s, si, w, out)
	return w
}

// victimSmall is victimBig for small ways.
func (c *Cache) victimSmall(s *cacheSet, si uint64, p addr.Phys, out *Outcome) int {
	if w := invalidWay(s.validSmall, s.st.Y); w >= 0 {
		return w
	}
	var protected uint32
	if c.locator != nil {
		_, protected = c.locator.ProtectedWays(p, c.setBits, si)
	}
	w := c.randomWay(s.st.Y, protected)
	c.evictSmall(s, si, w, out)
	return w
}

// invalidWay returns the lowest of ways [0,n) whose valid bit is clear, or
// -1 when all n are valid.
func invalidWay(valid uint32, n int) int {
	if invalid := ^valid & (1<<uint(n) - 1); invalid != 0 {
		return bits.TrailingZeros32(invalid)
	}
	return -1
}

// randomWay picks a random way in [0,n) avoiding the protected mask when
// possible. It draws the rng exactly once: the k-th set bit of the
// unprotected mask, rather than rejection-sampling until an unprotected
// way comes up (which consumed a data-dependent number of draws).
func (c *Cache) randomWay(n int, protected uint32) int {
	if n <= 0 {
		panic("core: randomWay with no ways")
	}
	unprot := ^protected & (1<<uint(n) - 1)
	free := popcount(unprot)
	if free == 0 {
		return c.rng.Intn(n)
	}
	k := c.rng.Intn(free)
	for ; k > 0; k-- {
		unprot &= unprot - 1
	}
	return bits.TrailingZeros32(unprot)
}

// evictBig removes big way w, recording the eviction and training the
// tracker for sampled sets.
func (c *Cache) evictBig(s *cacheSet, si uint64, w int, out *Outcome) {
	bit := uint32(1) << uint(w)
	if s.validBig&bit == 0 {
		return
	}
	b := &c.big[int(si)*c.maxBig+w]
	a := c.bigAddr(b.tag, si)
	c.scratch = append(c.scratch, Eviction{Big: true, Way: w, Addr: a, DirtyMask: b.dirty, UsedMask: b.used})
	c.Stats.Evictions++
	c.Stats.WritebackBytes += int64(popcount(b.dirty)) * SmallBlock
	c.Stats.WastedFetchBytes += int64(c.subBlocks-popcount(b.used)) * SmallBlock
	if c.tracker.Sampled(si) {
		c.tracker.OnEvict(c.blockID(a), b.used)
	}
	if c.locator != nil {
		c.locator.Invalidate(a, true)
	}
	*b = bigWay{}
	s.validBig &^= bit
}

// evictSmall removes small way w. In sampled sets the eviction also trains
// the size predictor: the utilization vector is reconstructed from the
// small ways of the same big-block region that are co-resident, so a
// region mistakenly fetched at small granularity (its lines keep arriving
// one by one) is re-learned as big — the reverse transition of the
// tracker's big-way training.
func (c *Cache) evictSmall(s *cacheSet, si uint64, w int, out *Outcome) {
	bit := uint32(1) << uint(w)
	if s.validSmall&bit == 0 {
		return
	}
	sb := int(si) * c.maxSmall
	ln := c.small[sb+w]
	a := addr.Phys(ln << 6)
	dm := s.dirtySmall >> uint(w) & 1
	c.scratch = append(c.scratch, Eviction{Big: false, Way: w, Addr: a, DirtyMask: dm, UsedMask: 1})
	c.Stats.Evictions++
	c.Stats.WritebackBytes += int64(dm) * SmallBlock
	if c.tracker.Sampled(si) {
		blk := ln >> c.subShift
		var mask uint32
		for m := s.validSmall; m != 0; m &= m - 1 {
			o := c.small[sb+bits.TrailingZeros32(m)]
			if o>>c.subShift == blk {
				mask |= 1 << (o & c.subMask)
			}
		}
		c.tracker.OnEvict(c.blockID(a), mask)
	}
	if c.locator != nil {
		c.locator.Invalidate(a, false)
	}
	c.small[sb+w] = 0
	s.validSmall &^= bit
	s.dirtySmall &^= bit
}

// convertToBig moves the set one state toward big: evicts the small ways
// occupying the highest big slot and grows X.
func (c *Cache) convertToBig(s *cacheSet, si uint64, out *Outcome) {
	f := c.subBlocks
	if s.st.Y < f {
		panic(fmt.Sprintf("core: convertToBig in state %v", s.st))
	}
	for w := s.st.Y - f; w < s.st.Y; w++ {
		c.evictSmall(s, si, w, out)
	}
	s.st.Y -= f
	s.st.X++
	c.Stats.StateChanges++
}

// convertToSmall moves the set one state toward small: evicts the highest
// big way and grows Y.
func (c *Cache) convertToSmall(s *cacheSet, si uint64, out *Outcome) {
	if s.st.X <= c.minBig {
		panic(fmt.Sprintf("core: convertToSmall in state %v", s.st))
	}
	c.evictBig(s, si, s.st.X-1, out)
	s.st.X--
	s.st.Y += c.subBlocks
	c.Stats.StateChanges++
}

// insertBig fills a big block into way w. Any small ways holding lines of
// the incoming block are evicted first (their dirty data is written back
// rather than merged, keeping the model conservative).
func (c *Cache) insertBig(s *cacheSet, si uint64, p addr.Phys, write bool, w int, out *Outcome) {
	blk, sb := uint64(p)>>c.offsetBits, int(si)*c.maxSmall
	for m := s.validSmall; m != 0; m &= m - 1 {
		sw := bits.TrailingZeros32(m)
		if c.small[sb+sw]>>c.subShift == blk {
			c.evictSmall(s, si, sw, out)
		}
	}
	bit := uint32(1) << c.subOf(p)
	var dirty uint32
	if write {
		dirty = bit
	}
	c.big[int(si)*c.maxBig+w] = bigWay{tag: c.tagOf(p), used: bit, dirty: dirty}
	s.validBig |= 1 << uint(w)
	out.Hit, out.Big, out.Way = false, true, w
	out.FillBytes = int64(c.bigBlock)
	c.Stats.FetchedBytes += out.FillBytes
	if c.locator != nil {
		c.locator.Insert(p, true, w)
	}
}

// insertSmall fills a 64B block into small way w.
func (c *Cache) insertSmall(s *cacheSet, si uint64, p addr.Phys, write bool, w int, out *Outcome) {
	bit := uint32(1) << uint(w)
	c.small[int(si)*c.maxSmall+w] = lineID(p)
	s.validSmall |= bit
	if write {
		s.dirtySmall |= bit
	} else {
		s.dirtySmall &^= bit
	}
	out.Hit, out.Big, out.Way = false, false, w
	out.FillBytes = SmallBlock
	c.Stats.FetchedBytes += SmallBlock
	if c.locator != nil {
		c.locator.Insert(p, false, w)
	}
}

// ResetStats clears measurement counters after warmup while keeping all
// cache, locator and predictor state warm (the paper's fast-forward
// methodology). Predictor tables and set states are untouched.
func (c *Cache) ResetStats() {
	c.Stats = CacheStats{}
	if c.locator != nil {
		c.locator.ResetStats()
	}
	c.tracker.Hist.Reset()
	c.pred.Predictions, c.pred.PredBig = 0, 0
	c.pred.Updates, c.pred.UpBig = 0, 0
}

// SetState returns the current state of set si (for tests and studies).
func (c *Cache) SetState(si uint64) State { return c.sets[si].st }

// CheckInvariants walks every set verifying structural invariants; it
// returns an error describing the first violation. Used by tests and the
// property-based suite.
func (c *Cache) CheckInvariants() error {
	p := c.params
	for i := range c.sets {
		s, si := &c.sets[i], uint64(i)
		if !p.stateValid(s.st) {
			return fmt.Errorf("set %d in illegal state %v", si, s.st)
		}
		// Capacity: X*Big + Y*64 == SetBytes.
		if uint64(s.st.X)*p.BigBlock+uint64(s.st.Y)*SmallBlock != p.SetBytes {
			return fmt.Errorf("set %d state %v does not fill the set", si, s.st)
		}
		// No valid ways beyond the state's range.
		if m := s.validBig >> uint(s.st.X); m != 0 {
			return fmt.Errorf("set %d has valid big way %d beyond X=%d", si, s.st.X+bits.TrailingZeros32(m), s.st.X)
		}
		if m := s.validSmall >> uint(s.st.Y); m != 0 {
			return fmt.Errorf("set %d has valid small way %d beyond Y=%d", si, s.st.Y+bits.TrailingZeros32(m), s.st.Y)
		}
		if m := s.dirtySmall &^ s.validSmall; m != 0 {
			return fmt.Errorf("set %d small way %d is dirty but holds no line", si, bits.TrailingZeros32(m))
		}
		// Small lines must belong to this set and not duplicate big ways.
		for m := s.validSmall; m != 0; m &= m - 1 {
			w := bits.TrailingZeros32(m)
			a := addr.Phys(c.small[i*c.maxSmall+w] << 6)
			if c.setOf(a) != si {
				return fmt.Errorf("set %d small way %d holds line of set %d", si, w, c.setOf(a))
			}
			for bm := s.validBig; bm != 0; bm &= bm - 1 {
				if c.big[i*c.maxBig+bits.TrailingZeros32(bm)].tag == c.tagOf(a) {
					return fmt.Errorf("set %d line %x resident both big and small", si, a)
				}
			}
		}
	}
	// Every valid locator entry must name a block its way holds, so no
	// Lookup can return a way that does not.
	for i := 0; c.locator != nil && i < len(c.locator.entries); i++ {
		e := &c.locator.entries[i]
		if !e.valid() {
			continue
		}
		p, h := addr.Phys(e.blockID<<6), Hit{Big: e.big(), Way: e.way()}
		if h.Big {
			p = addr.Phys(e.blockID << c.locator.bigShift)
		}
		if si := c.setOf(p); !c.holds(&c.sets[si], si, p, h) {
			return fmt.Errorf("way-locator entry %d names %x in big=%v way %d, which does not hold it", i, p, h.Big, h.Way)
		}
	}
	return nil
}
