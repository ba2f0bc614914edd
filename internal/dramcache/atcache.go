package dramcache

import (
	"bimodal/internal/addr"
	"bimodal/internal/dram"
	"bimodal/internal/memctrl"
	"bimodal/internal/sram"
)

// atCacheWays is the set associativity of the ATCache organization the
// paper compares against (Figure 3 shows a 16-way search).
const atCacheWays = 16

// atTagBytes is the tag payload per set (16 ways x 4B, one 64B burst).
const atTagBytes = 64

// atPG is the tag-prefetch granularity the paper used ("PG = 8"): a tag
// cache miss also fetches the tags of the neighbouring sets in its group.
const atPG = 8

// ATCache implements the ATCache baseline (Huang & Nagarajan, PACT 2014):
// a tags-in-DRAM 64B-block cache fronted by a small SRAM tag cache. Tag
// cache hits need a single DRAM data access; misses read the tags from
// DRAM first (serially) and install the whole PG-set tag group in the tag
// cache.
type ATCache struct {
	baseStats
	// cfg is reassigned by Reset; snapshots rebuild geometry from it.
	cfg     Config //bmlint:nosnapshot
	stacked *memctrl.Controller
	offchip *memctrl.Controller

	numSets int //bmlint:resetconst //bmlint:nosnapshot
	sets    *assocArray
	// tagCache caches per-set tag blocks; address space = set index * 64.
	tagCache *sram.Cache

	tagCacheLat int64 //bmlint:resetconst //bmlint:nosnapshot
	metaReads   int64
	metaRowHits int64
}

// NewATCache builds the scheme for cfg.
func NewATCache(cfg Config) *ATCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	stacked, offchip := cfg.controllers()
	n := int(cfg.CacheBytes / (atCacheWays * 64))
	// 32K-entry, 4-way tag cache (~128KB class, the ATCache budget scaled
	// to these cache sizes).
	tc := sram.New(sram.Config{
		SizeBytes: 32768 * 64,
		BlockSize: 64,
		Assoc:     4,
	})
	return &ATCache{
		cfg:         cfg,
		stacked:     stacked,
		offchip:     offchip,
		numSets:     n,
		sets:        newAssocArray(n, atCacheWays),
		tagCache:    tc,
		tagCacheLat: 2,
	}
}

// Name implements Scheme.
func (a *ATCache) Name() string { return "ATCache" }

// setLoc maps a set to its DRAM location. Sets are placed so the atPG sets
// of one prefetch group share a row, letting the group's tags stream out
// of one activation.
func (a *ATCache) setLoc(set int, column uint64) addr.Location {
	g := a.stacked.Config().Geometry
	group := set / atPG
	within := set % atPG
	ch := group % g.Channels
	i := group / g.Channels
	bank := i % g.Banks()
	// Each set occupies (16 ways + tags) = 1088B; two sets' data do not
	// fit one 2KB row, so a group's sets span consecutive rows of the
	// same bank while their tags pack into the first row of the group.
	return addr.Location{
		Channel: ch,
		Bank:    bank,
		Row:     uint64(i/g.Banks())*atPG + uint64(within),
		Column:  column,
	}
}

// tagLoc is the location of the set's (group-packed) tags.
func (a *ATCache) tagLoc(set int) addr.Location {
	l := a.setLoc(set-set%atPG, uint64(set%atPG)*atTagBytes)
	return l
}

// tagAddr is the synthetic address of a set's tags in the tag cache's
// address space.
func (a *ATCache) tagAddr(set int) addr.Phys { return addr.Phys(set * 64) }

// Access implements Scheme.
func (a *ATCache) Access(req Request, now int64) Result {
	line := req.Addr.Line64()
	lineID := uint64(line) >> 6
	set := int(lineID % uint64(a.numSets))
	tag := lineID / uint64(a.numSets)

	t0 := now + a.tagCacheLat
	tcHit, _ := a.tagCache.Access(a.tagAddr(set), false)

	tagsKnown := t0
	if !tcHit {
		// Serial DRAM tag read, then install the group's tags.
		tagsDone, rr := a.stacked.ReadAt(a.tagLoc(set), t0, atTagBytes)
		a.metaReads++
		if rr == dram.RowHit {
			a.metaRowHits++
		}
		tagsKnown = tagsDone + tagCompareCycles
		group := set - set%atPG
		for s := group; s < group+atPG && s < a.numSets; s++ {
			a.tagCache.Insert(a.tagAddr(s), false, 0)
		}
		// The rest of the group's tags stream from the open row (posted).
		a.stacked.ReadAt(a.tagLoc(set), tagsDone, (atPG-1)*atTagBytes)
	}

	way := a.sets.lookup(set, tag, true)
	hit := way >= 0

	var done int64
	switch {
	case req.Write:
		if !hit {
			way = a.fillAfterMiss(req, set, tag, now)
		}
		a.stacked.WriteAt(a.dataLoc(set, way), now, 64)
		a.sets.setAux(set, way, 1)
		done = tagsKnown + 1
	case hit:
		done, _ = a.stacked.ReadAt(a.dataLoc(set, way), tagsKnown, 64)
	default:
		done, _ = a.offchip.Read(line, tagsKnown, 64)
		a.fillAfterMiss(req, set, tag, now)
	}
	a.note(req, hit, now, done)
	return Result{Done: done, Hit: hit}
}

// dataLoc returns the DRAM location of a set's data way (each set's 16
// data blocks fill its row; the group's tags live in the group's first
// row, addressed by tagLoc).
func (a *ATCache) dataLoc(set, way int) addr.Location {
	return a.setLoc(set, uint64(way)*64)
}

// fillAfterMiss installs the line (posted) and writes back a dirty victim.
func (a *ATCache) fillAfterMiss(req Request, set int, tag uint64, at int64) int {
	victim, way := a.sets.insert(set, tag, 0)
	if victim.valid && victim.aux != 0 {
		vaddr := addr.Phys((victim.tag*uint64(a.numSets) + uint64(set)) << 6)
		rd, _ := a.stacked.ReadAt(a.dataLoc(set, victim.way), at, 64)
		a.offchip.Write(vaddr, rd, 64)
	}
	a.stacked.WriteAt(a.dataLoc(set, way), at, 64)
	a.stacked.WriteAt(a.tagLoc(set), at, 64) // tag update
	return way
}

// Reset implements Resetter: the scheme returns to its just-constructed
// state in place, reusing the tag array, the SRAM tag cache and both
// controllers. Only cfg.Seed may differ from the construction Config.
//
//bmlint:hotpath
func (a *ATCache) Reset(cfg Config) bool {
	if !sameGeometry(cfg, a.cfg) {
		return false
	}
	a.cfg = cfg
	a.baseStats.reset()
	a.stacked.Reset()
	a.offchip.Reset()
	a.sets.reset()
	a.tagCache.Reset()
	a.metaReads, a.metaRowHits = 0, 0
	return true
}

// ResetStats implements Scheme.
func (a *ATCache) ResetStats() {
	a.baseStats.reset()
	a.metaReads, a.metaRowHits = 0, 0
	a.tagCache.ResetStats()
	a.stacked.ResetStats()
	a.offchip.ResetStats()
}

// Report implements Scheme.
func (a *ATCache) Report() Report {
	r := Report{Scheme: a.Name()}
	a.fill(&r)
	r.LocatorLookups = a.tagCache.Hits + a.tagCache.Misses
	r.LocatorHits = a.tagCache.Hits
	r.MetaReads = a.metaReads
	r.MetaRowHits = a.metaRowHits
	off := a.offchip.Stats()
	r.OffchipReadBytes = off.BytesRead
	r.OffchipWriteBytes = off.BytesWrit
	r.Stacked = a.stacked.Stats()
	r.Offchip = off
	return r
}
