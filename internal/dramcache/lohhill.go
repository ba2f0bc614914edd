package dramcache

import (
	"bimodal/internal/addr"
	"bimodal/internal/dram"
	"bimodal/internal/memctrl"
)

// lohHillWays is the paper-described organization: a 2KB row holds 29
// 64B data blocks plus 3 blocks of tags, forming one 29-way set.
const lohHillWays = 29

// lohHillTagBytes is the tag storage read per lookup (two 64B bursts cover
// 29 tags at ~4B each).
const lohHillTagBytes = 128

// LohHill implements the Loh-Hill baseline (MICRO 2011): 64B blocks,
// 29-way sets co-located with their tags in a single DRAM row, accessed by
// compound scheduling — activate the row once, read the tags, then (on a
// hit) read the data with a column access to the open row.
type LohHill struct {
	baseStats
	// cfg is reassigned by Reset; snapshots rebuild geometry from it.
	cfg     Config //bmlint:nosnapshot
	stacked *memctrl.Controller
	offchip *memctrl.Controller

	numSets int //bmlint:resetconst //bmlint:nosnapshot
	sets    *assocArray

	metaReads   int64
	metaRowHits int64
}

// NewLohHill builds the scheme for cfg.
func NewLohHill(cfg Config) *LohHill {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	stacked, offchip := cfg.controllers()
	n := int(cfg.CacheBytes / (lohHillWays * 64))
	return &LohHill{
		cfg:     cfg,
		stacked: stacked,
		offchip: offchip,
		numSets: n,
		sets:    newAssocArray(n, lohHillWays),
	}
}

// Name implements Scheme.
func (l *LohHill) Name() string { return "LohHill" }

// setLoc maps a set to its DRAM row; column 0..191 hold the tags, data
// block w sits at column 192 + 64w.
func (l *LohHill) setLoc(set int, column uint64) addr.Location {
	g := l.stacked.Config().Geometry
	ch := set % g.Channels
	i := set / g.Channels
	bank := i % g.Banks()
	return addr.Location{
		Channel: ch,
		Bank:    bank,
		Row:     uint64(i / g.Banks()),
		Column:  column,
	}
}

const lohHillDataBase = 3 * 64 // data columns start after the 3 tag blocks

// Access implements Scheme.
func (l *LohHill) Access(req Request, now int64) Result {
	line := req.Addr.Line64()
	lineID := uint64(line) >> 6
	set := int(lineID % uint64(l.numSets))
	tag := lineID / uint64(l.numSets)

	const ctrlLatency = 1
	t0 := now + ctrlLatency

	// Compound access: tag read opens the row; everything after is a row
	// hit in the same bank.
	tagsDone, rr := l.stacked.ReadAt(l.setLoc(set, 0), t0, lohHillTagBytes)
	l.metaReads++
	if rr == dram.RowHit {
		l.metaRowHits++
	}
	way := l.sets.lookup(set, tag, true)
	hit := way >= 0

	var done int64
	if req.Write {
		if !hit {
			way = l.fillAfterMiss(req, set, tag, now)
		}
		l.stacked.WriteAt(l.setLoc(set, lohHillDataBase+uint64(way)*64), now, 64)
		l.sets.setAux(set, way, 1) // dirty
		done = tagsDone + tagCompareCycles
	} else if hit {
		done, _ = l.stacked.ReadAt(l.setLoc(set, lohHillDataBase+uint64(way)*64), tagsDone+tagCompareCycles, 64)
		// Recency update (LRU bits rewritten into the tag blocks; posted).
		l.stacked.WriteAt(l.setLoc(set, 0), now, 64)
	} else {
		offDone, _ := l.offchip.Read(line, tagsDone+tagCompareCycles, 64)
		done = offDone
		l.fillAfterMiss(req, set, tag, now)
	}
	l.note(req, hit, now, done)
	return Result{Done: done, Hit: hit}
}

// fillAfterMiss installs the line (posted), writing back a dirty victim.
func (l *LohHill) fillAfterMiss(req Request, set int, tag uint64, at int64) int {
	victim, way := l.sets.insert(set, tag, 0)
	if victim.valid && victim.aux != 0 {
		vaddr := addr.Phys((victim.tag*uint64(l.numSets) + uint64(set)) << 6)
		rd, _ := l.stacked.ReadAt(l.setLoc(set, lohHillDataBase+uint64(victim.way)*64), at, 64)
		l.offchip.Write(vaddr, rd, 64)
	}
	l.stacked.WriteAt(l.setLoc(set, lohHillDataBase+uint64(way)*64), at, 64)
	l.stacked.WriteAt(l.setLoc(set, 0), at, 64) // tag install
	return way
}

// Reset implements Resetter: the scheme returns to its just-constructed
// state in place, reusing the tag array and both controllers. Only
// cfg.Seed may differ from the construction Config.
//
//bmlint:hotpath
func (l *LohHill) Reset(cfg Config) bool {
	if !sameGeometry(cfg, l.cfg) {
		return false
	}
	l.cfg = cfg
	l.baseStats.reset()
	l.stacked.Reset()
	l.offchip.Reset()
	l.sets.reset()
	l.metaReads, l.metaRowHits = 0, 0
	return true
}

// ResetStats implements Scheme.
func (l *LohHill) ResetStats() {
	l.baseStats.reset()
	l.metaReads, l.metaRowHits = 0, 0
	l.stacked.ResetStats()
	l.offchip.ResetStats()
}

// Report implements Scheme.
func (l *LohHill) Report() Report {
	r := Report{Scheme: l.Name()}
	l.fill(&r)
	r.MetaReads = l.metaReads
	r.MetaRowHits = l.metaRowHits
	off := l.offchip.Stats()
	r.OffchipReadBytes = off.BytesRead
	r.OffchipWriteBytes = off.BytesWrit
	r.Stacked = l.stacked.Stats()
	r.Offchip = off
	return r
}
