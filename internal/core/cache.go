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

type bigWay struct {
	valid bool
	tag   uint64
	dirty uint32
	used  uint32
}

type smallWay struct {
	valid  bool
	lineID uint64 // full 64B line identity (address >> 6)
	dirty  bool
}

// cacheSet carries, beside the per-way metadata, occupancy bitmasks (bit w
// set when way w is valid) so the hot paths scan set bits instead of
// walking every way.
type cacheSet struct {
	st         State
	validBig   uint32
	validSmall uint32
	big        []bigWay
	small      []smallWay
}

// Cache is the functional Bi-Modal cache: it tracks residency, set states,
// utilization and dirtiness, and drives the way locator, size predictor
// and global adaptation. Timing is layered on top by internal/dramcache.
type Cache struct {
	// params is construction-time geometry; snapshots reconstruct it from
	// Config rather than serializing it.
	params  Params //bmlint:nosnapshot
	sets    []cacheSet
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
	c := &Cache{
		params:     p,
		sets:       make([]cacheSet, p.NumSets()),
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
		maxSmall:   p.MaxSmall(),
		bigBlock:   p.BigBlock,
		scratch:    make([]Eviction, 0, p.MaxAssoc()+1),
	}
	// Single backing arrays for all sets' ways: constructing a 512MB
	// cache allocates 3 slices instead of a million.
	allBig := State{X: p.MaxBig(), Y: 0}
	bigBacking := make([]bigWay, int(p.NumSets())*p.MaxBig())
	smallBacking := make([]smallWay, int(p.NumSets())*p.MaxSmall())
	nb, ns := p.MaxBig(), p.MaxSmall()
	for i := range c.sets {
		c.sets[i] = cacheSet{
			st:    allBig,
			big:   bigBacking[i*nb : (i+1)*nb : (i+1)*nb],
			small: smallBacking[i*ns : (i+1)*ns : (i+1)*ns],
		}
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
		s := &c.sets[i]
		s.st = allBig
		s.validBig, s.validSmall = 0, 0
		for w := range s.big {
			s.big[w] = bigWay{}
		}
		for w := range s.small {
			s.small[w] = smallWay{}
		}
	}
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
	s := &c.sets[c.setOf(p)]
	tag := c.tagOf(p)
	for m := s.validBig; m != 0; m &= m - 1 {
		if s.big[bits.TrailingZeros32(m)].tag == tag {
			return true
		}
	}
	ln := lineID(p)
	for m := s.validSmall; m != 0; m &= m - 1 {
		if s.small[bits.TrailingZeros32(m)].lineID == ln {
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
			c.assertLocatorHit(s, p, h)
			out.LocatorHit, out.Hit, out.Big, out.Way = true, true, h.Big, h.Way
			c.touchHit(s, p, h.Big, h.Way, write)
			c.noteInterval()
			return out
		}
	}

	// 2. Tag search over the occupied ways only.
	tag := c.tagOf(p)
	for m := s.validBig; m != 0; m &= m - 1 {
		w := bits.TrailingZeros32(m)
		if s.big[w].tag == tag {
			out.Hit, out.Big, out.Way = true, true, w
			c.touchHit(s, p, true, w, write)
			if c.locator != nil {
				c.locator.Insert(p, true, w)
			}
			c.noteInterval()
			return out
		}
	}
	ln := lineID(p)
	for m := s.validSmall; m != 0; m &= m - 1 {
		w := bits.TrailingZeros32(m)
		if s.small[w].lineID == ln {
			out.Hit, out.Big, out.Way = true, false, w
			c.touchHit(s, p, false, w, write)
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

// assertLocatorHit panics if the way locator returned a way that does not
// actually hold the block — the design guarantees this never happens.
func (c *Cache) assertLocatorHit(s *cacheSet, p addr.Phys, h Hit) {
	ok := false
	if h.Big {
		ok = h.Way < s.st.X && s.big[h.Way].valid && s.big[h.Way].tag == c.tagOf(p)
	} else {
		ok = h.Way < s.st.Y && s.small[h.Way].valid && s.small[h.Way].lineID == lineID(p)
	}
	if !ok {
		panic(fmt.Sprintf("core: way locator mispredicted %x -> big=%v way=%d (set state %v)",
			p, h.Big, h.Way, s.st))
	}
}

// touchHit updates hit statistics and the dirty/used masks.
func (c *Cache) touchHit(s *cacheSet, p addr.Phys, big bool, way int, write bool) {
	c.Stats.Hits++
	if big {
		c.Stats.HitsBig++
		b := &s.big[way]
		bit := uint32(1) << c.subOf(p)
		b.used |= bit
		if write {
			b.dirty |= bit
		}
	} else {
		c.Stats.HitsSmall++
		if write {
			s.small[way].dirty = true
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
	c.evictSmall(s, w, out)
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
	b := &s.big[w]
	if !b.valid {
		return
	}
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
	s.validBig &^= 1 << uint(w)
}

// evictSmall removes small way w. In sampled sets the eviction also trains
// the size predictor: the utilization vector is reconstructed from the
// small ways of the same big-block region that are co-resident, so a
// region mistakenly fetched at small granularity (its lines keep arriving
// one by one) is re-learned as big — the reverse transition of the
// tracker's big-way training.
func (c *Cache) evictSmall(s *cacheSet, w int, out *Outcome) {
	sm := &s.small[w]
	if !sm.valid {
		return
	}
	a := addr.Phys(sm.lineID << 6)
	var dm uint32
	if sm.dirty {
		dm = 1
	}
	c.scratch = append(c.scratch, Eviction{Big: false, Way: w, Addr: a, DirtyMask: dm, UsedMask: 1})
	c.Stats.Evictions++
	if sm.dirty {
		c.Stats.WritebackBytes += SmallBlock
	}
	if si := c.setOf(a); c.tracker.Sampled(si) {
		blk := sm.lineID >> c.subShift
		var mask uint32
		for m := s.validSmall; m != 0; m &= m - 1 {
			o := &s.small[bits.TrailingZeros32(m)]
			if o.lineID>>c.subShift == blk {
				mask |= 1 << (o.lineID & c.subMask)
			}
		}
		c.tracker.OnEvict(c.blockID(a), mask)
	}
	if c.locator != nil {
		c.locator.Invalidate(a, false)
	}
	*sm = smallWay{}
	s.validSmall &^= 1 << uint(w)
}

// convertToBig moves the set one state toward big: evicts the small ways
// occupying the highest big slot and grows X.
func (c *Cache) convertToBig(s *cacheSet, si uint64, out *Outcome) {
	f := c.subBlocks
	if s.st.Y < f {
		panic(fmt.Sprintf("core: convertToBig in state %v", s.st))
	}
	for w := s.st.Y - f; w < s.st.Y; w++ {
		c.evictSmall(s, w, out)
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
	blk := uint64(p) >> c.offsetBits
	for m := s.validSmall; m != 0; m &= m - 1 {
		sw := bits.TrailingZeros32(m)
		if s.small[sw].lineID>>c.subShift == blk {
			c.evictSmall(s, sw, out)
		}
	}
	bit := uint32(1) << c.subOf(p)
	var dirty uint32
	if write {
		dirty = bit
	}
	s.big[w] = bigWay{valid: true, tag: c.tagOf(p), used: bit, dirty: dirty}
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
	s.small[w] = smallWay{valid: true, lineID: lineID(p), dirty: write}
	s.validSmall |= 1 << uint(w)
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
	for si := range c.sets {
		s := &c.sets[si]
		if !p.stateValid(s.st) {
			return fmt.Errorf("set %d in illegal state %v", si, s.st)
		}
		// Capacity: X*Big + Y*64 == SetBytes.
		if uint64(s.st.X)*p.BigBlock+uint64(s.st.Y)*SmallBlock != p.SetBytes {
			return fmt.Errorf("set %d state %v does not fill the set", si, s.st)
		}
		// Occupancy bitmasks must mirror the per-way valid bits exactly.
		var vb, vs uint32
		for w := range s.big {
			if s.big[w].valid {
				vb |= 1 << uint(w)
			}
		}
		for w := range s.small {
			if s.small[w].valid {
				vs |= 1 << uint(w)
			}
		}
		if vb != s.validBig || vs != s.validSmall {
			return fmt.Errorf("set %d occupancy masks diverge: big %032b vs %032b, small %032b vs %032b",
				si, s.validBig, vb, s.validSmall, vs)
		}
		// No valid ways beyond the state's range.
		for w := s.st.X; w < len(s.big); w++ {
			if s.big[w].valid {
				return fmt.Errorf("set %d has valid big way %d beyond X=%d", si, w, s.st.X)
			}
		}
		for w := s.st.Y; w < len(s.small); w++ {
			if s.small[w].valid {
				return fmt.Errorf("set %d has valid small way %d beyond Y=%d", si, w, s.st.Y)
			}
		}
		// Small lines must belong to this set and not duplicate big ways.
		for w := 0; w < s.st.Y; w++ {
			sm := s.small[w]
			if !sm.valid {
				continue
			}
			a := addr.Phys(sm.lineID << 6)
			if c.setOf(a) != uint64(si) {
				return fmt.Errorf("set %d small way %d holds line of set %d", si, w, c.setOf(a))
			}
			for bw := 0; bw < s.st.X; bw++ {
				if s.big[bw].valid && s.big[bw].tag == c.tagOf(a) {
					return fmt.Errorf("set %d line %x resident both big and small", si, a)
				}
			}
		}
	}
	return nil
}
