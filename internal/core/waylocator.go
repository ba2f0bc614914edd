package core

import (
	"fmt"

	"bimodal/internal/addr"
)

// WayLocator is the small SRAM structure that caches the way IDs of the
// most recently accessed blocks (Section III-C). It is a 2-way
// set-associative table with 2^K indexes. Entries store the full block
// identity (the hardware equivalent of "remaining set+tag bits plus the 3
// leading offset bits"), so a locator hit is always correct: it never
// causes a wasted DRAM access.
type WayLocator struct {
	// Table geometry, fixed at construction.
	k        uint      //bmlint:resetconst //bmlint:nosnapshot
	mask     uint64    //bmlint:resetconst //bmlint:nosnapshot
	bigShift uint      //bmlint:resetconst //bmlint:nosnapshot — log2 of the big block size
	entries  []wlEntry // 2 per index, flattened
	clock    uint64

	// Statistics.
	Lookups int64
	HitsBig int64
	HitsSml int64
}

type wlEntry struct {
	valid   bool
	big     bool
	blockID uint64 // 512B block ID for big entries, 64B line ID for small
	way     int
	lastUse uint64
}

// NewWayLocator builds a locator with 2^k indexes (2*2^k entries) for a
// cache whose big blocks are bigBlock bytes (512 in the paper).
func NewWayLocator(k uint, bigBlock uint64) *WayLocator {
	if k == 0 || k > 24 {
		panic(fmt.Sprintf("core: way locator K=%d out of range", k))
	}
	if !addr.IsPow2(bigBlock) || bigBlock < SmallBlock {
		panic(fmt.Sprintf("core: way locator big block %d invalid", bigBlock))
	}
	return &WayLocator{
		k:        k,
		mask:     (1 << k) - 1,
		bigShift: addr.Log2(bigBlock),
		entries:  make([]wlEntry, 2<<k),
	}
}

// Reset returns the locator to its just-constructed state in place, reusing
// the entry array: all entries invalidated, clock and statistics cleared.
//
//bmlint:hotpath
func (w *WayLocator) Reset() {
	for i := range w.entries {
		w.entries[i] = wlEntry{}
	}
	w.clock = 0
	w.Lookups, w.HitsBig, w.HitsSml = 0, 0, 0
}

// index derives the table index from the low K bits of the big-block
// identity — exactly the cache's set-index bits (the paper draws the index
// "from the tag and set index bits"). Blocks of one set therefore share an
// index, making each 2-entry row the set's top-2 MRU ways; when the cache
// has more than 2^K sets, a few sets alias per row (the paper's "may have
// fewer entries than the number of sets").
func (w *WayLocator) index(p addr.Phys) uint64 {
	return w.bigID(p) & w.mask
}

// bigID returns the big-block identity used for big entries.
func (w *WayLocator) bigID(p addr.Phys) uint64 { return uint64(p) >> w.bigShift }

// smallID returns the 64B line identity used for small entries.
func smallID(p addr.Phys) uint64 { return uint64(p) >> 6 }

// Hit describes a successful way location.
type Hit struct {
	Big bool
	Way int
}

// Lookup probes the locator for the line at p. ok reports a hit; the
// result names the way and whether it is a big or small way.
//
//bmlint:hotpath
func (w *WayLocator) Lookup(p addr.Phys) (Hit, bool) {
	w.Lookups++
	w.clock++
	base := w.index(p) * 2
	for i := base; i < base+2; i++ {
		e := &w.entries[i]
		if !e.valid {
			continue
		}
		if e.big && e.blockID == w.bigID(p) {
			e.lastUse = w.clock
			w.HitsBig++
			return Hit{Big: true, Way: e.way}, true
		}
		if !e.big && e.blockID == smallID(p) {
			e.lastUse = w.clock
			w.HitsSml++
			return Hit{Big: false, Way: e.way}, true
		}
	}
	return Hit{}, false
}

// Insert records that the block containing p resides in the given way.
// Called after a locator miss that turned out to be a DRAM cache hit, and
// after fills.
func (w *WayLocator) Insert(p addr.Phys, big bool, way int) {
	w.clock++
	id := smallID(p)
	if big {
		id = w.bigID(p)
	}
	base := w.index(p) * 2
	// Update in place if present; otherwise replace invalid or LRU entry.
	victim := base
	for i := base; i < base+2; i++ {
		e := &w.entries[i]
		if e.valid && e.big == big && e.blockID == id {
			e.way = way
			e.lastUse = w.clock
			return
		}
		if !e.valid {
			victim = i
		} else if w.entries[victim].valid && e.lastUse < w.entries[victim].lastUse {
			victim = i
		}
	}
	w.entries[victim] = wlEntry{valid: true, big: big, blockID: id, way: way, lastUse: w.clock}
}

// Invalidate removes the entry for the block containing p (called on
// evictions so the locator never points at stale ways).
func (w *WayLocator) Invalidate(p addr.Phys, big bool) {
	id := smallID(p)
	if big {
		id = w.bigID(p)
	}
	base := w.index(p) * 2
	for i := base; i < base+2; i++ {
		e := &w.entries[i]
		if e.valid && e.big == big && e.blockID == id {
			e.valid = false
		}
	}
}

// ProtectedWays returns the way numbers of the (up to two) big-way entries
// the locator currently holds for blocks mapping to the same index as p.
// These approximate the set's top-2 MRU ways; the replacement policy is
// "random-not-recent" with respect to them. The returned mask has bit i set
// when big way i is protected; smallMask likewise for small ways.
func (w *WayLocator) ProtectedWays(p addr.Phys, setBits uint, setIndex uint64) (bigMask, smallMask uint32) {
	base := w.index(p) * 2
	for i := base; i < base+2; i++ {
		e := &w.entries[i]
		if !e.valid {
			continue
		}
		// Only protect entries whose block actually lives in this cache
		// set: compare the set-index bits of the stored identity.
		var entrySet uint64
		if e.big {
			entrySet = e.blockID & (1<<setBits - 1)
		} else {
			entrySet = (e.blockID >> (w.bigShift - 6)) & (1<<setBits - 1)
		}
		if entrySet != setIndex {
			continue
		}
		if e.big && e.way < 32 {
			bigMask |= 1 << e.way
		} else if !e.big && e.way < 32 {
			smallMask |= 1 << e.way
		}
	}
	return bigMask, smallMask
}

// HitRate returns the locator hit rate.
func (w *WayLocator) HitRate() float64 {
	if w.Lookups == 0 {
		return 0
	}
	return float64(w.HitsBig+w.HitsSml) / float64(w.Lookups)
}

// ResetStats clears the counters.
func (w *WayLocator) ResetStats() { w.Lookups, w.HitsBig, w.HitsSml = 0, 0, 0 }

// StorageBits returns the SRAM bits required for a locator with 2^K
// indexes over a machine with memBits of physical address space, following
// the paper's Table III accounting: each entry stores the remaining
// (memBits-9-K) tag+set bits, 3 leading offset bits, a valid bit, a size
// bit and a 5-bit way ID, plus one LRU bit per 2-entry index.
func StorageBits(k uint, memBits uint) int64 {
	if memBits <= 9+k {
		return 0
	}
	perEntry := int64(memBits-9-k) + 3 + 1 + 1 + 5
	entries := int64(2) << k
	return entries*perEntry + entries/2 // + LRU bit per index
}

// StorageKB returns StorageBits in kilobytes.
func StorageKB(k uint, memBits uint) float64 {
	return float64(StorageBits(k, memBits)) / 8 / 1024
}

// LatencyCycles returns the locator SRAM lookup latency in CPU cycles for
// a table of the given size, using the paper's CACTI-22nm derived values
// (Table III): 1 cycle up to ~128KB, 2 cycles up to ~512KB, 3 beyond.
func LatencyCycles(storageKB float64) int64 {
	switch {
	case storageKB <= 128:
		return 1
	case storageKB <= 512:
		return 2
	default:
		return 3
	}
}

// TagRAMLatency returns the paper's CACTI-derived lookup latency for large
// tags-in-SRAM stores (Footprint Cache style): 6 cycles for 1MB, 7 for
// 2MB, 9 for 4MB and above, 5 below 1MB.
func TagRAMLatency(storageBytes uint64) int64 {
	mb := float64(storageBytes) / (1 << 20)
	switch {
	case mb < 1:
		return 5
	case mb < 2:
		return 6
	case mb < 4:
		return 7
	default:
		return 9
	}
}
