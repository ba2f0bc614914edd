package dramcache

import (
	"bimodal/internal/addr"
	"bimodal/internal/memctrl"
)

// tadBytes is the size of one AlloyCache TAD (tag-and-data) unit: 64B of
// data plus 8B of tag, streamed out in a single slightly-larger burst.
const tadBytes = 72

// tadsPerRow is the number of 72B TADs packed into one 2KB DRAM row.
const tadsPerRow = 28

// Alloy implements the AlloyCache baseline (Qureshi & Loh, MICRO 2012;
// Table IV's baseline): a direct-mapped 64B-block cache whose tag and data
// are alloyed into one TAD so a hit needs exactly one DRAM access with a
// larger burst. A MAP-style hit/miss predictor decides whether the off-chip
// access is issued in parallel (predicted miss) or serially after the tag
// check (predicted hit).
//
// Substitution note: MAP-I indexes its counters by instruction PC, which
// traces do not carry; we index by memory region (per-core hashed line
// region), preserving the predictor's role of hiding miss latency.
type Alloy struct {
	baseStats
	// cfg is reassigned by Reset; snapshots rebuild geometry from it.
	cfg     Config //bmlint:nosnapshot
	stacked *memctrl.Controller
	offchip *memctrl.Controller

	numBlocks uint64 //bmlint:resetconst //bmlint:nosnapshot
	// blkDiv, chDiv and bankDiv divide by numBlocks, the stacked channels
	// and the banks per channel. They are fixed at construction so an
	// access neither copies the controller's Config nor divides at run
	// time (DESIGN.md section 10).
	blkDiv  fastDiv //bmlint:resetconst //bmlint:nosnapshot
	chDiv   fastDiv //bmlint:resetconst //bmlint:nosnapshot
	bankDiv fastDiv //bmlint:resetconst //bmlint:nosnapshot
	// tags packs each TAD's state into 32 bits: bit0 valid, bit1 dirty,
	// bits 2.. tag. With a 40-bit address space and any cache >= 64KB the
	// tag fits comfortably; packing keeps a 512MB cache's tag array at
	// 32MB instead of 192MB of padded structs.
	tags []uint32

	pred regionPredictor

	// WastedParallelBytes counts off-chip reads issued by mispredicted
	// parallel accesses (predicted miss, actual hit).
	WastedParallelBytes int64
}

const (
	tadValid = 1 << 0
	tadDirty = 1 << 1
)

// NewAlloy builds the baseline for cfg.
func NewAlloy(cfg Config) *Alloy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	stacked, offchip := cfg.controllers()
	n := cfg.CacheBytes / 64
	g := stacked.Config().Geometry
	a := &Alloy{
		cfg:       cfg,
		stacked:   stacked,
		offchip:   offchip,
		numBlocks: n,
		blkDiv:    newFastDiv(n),
		chDiv:     newFastDiv(uint64(g.Channels)),
		bankDiv:   newFastDiv(uint64(g.Banks())),
		tags:      make([]uint32, n),
	}
	// Initialize the predictor toward "hit" (counters mid-high) so the
	// cold stream does not flood the off-chip bus with parallel probes.
	for i := range a.pred.counters {
		a.pred.counters[i] = 4
	}
	return a
}

// Name implements Scheme.
func (a *Alloy) Name() string { return "AlloyCache" }

// tadLoc maps a direct-mapped TAD index to its stacked DRAM location.
func (a *Alloy) tadLoc(idx uint64) addr.Location {
	i, ch := a.chDiv.divmod(idx)
	i, bank := a.bankDiv.divmod(i)
	return addr.Location{
		Channel: int(ch),
		Bank:    int(bank),
		Row:     i / tadsPerRow,
		Column:  i % tadsPerRow * tadBytes,
	}
}

// Access implements Scheme.
func (a *Alloy) Access(req Request, now int64) Result {
	line := req.Addr.Line64()
	tag, idx := a.blkDiv.divmod(uint64(line) >> 6)
	entry := a.tags[idx]
	hit := entry&tadValid != 0 && uint64(entry>>2) == tag
	loc := a.tadLoc(idx)

	const predLatency = 1
	t0 := now + predLatency

	var done int64
	if req.Write {
		// Posted write of the TAD; write-allocate on miss.
		if !hit {
			a.fillAfterMiss(idx, tag, loc, t0)
		}
		a.stacked.WriteAt(loc, t0, tadBytes)
		a.tags[idx] |= tadDirty
		done = t0 + 1
	} else {
		predHit := a.pred.predictHit(req.Core, line)
		tadDone, _ := a.stacked.ReadAt(loc, t0, tadBytes)
		switch {
		case hit:
			done = tadDone
			if !predHit {
				// Parallel probe was issued and wasted.
				a.offchip.Read(line, t0, 64)
				a.WastedParallelBytes += 64
			}
		case !predHit:
			offDone, _ := a.offchip.Read(line, t0, 64)
			done = max64(tadDone, offDone)
			a.fillAfterMiss(idx, tag, loc, now)
		default:
			offDone, _ := a.offchip.Read(line, tadDone, 64)
			done = offDone
			a.fillAfterMiss(idx, tag, loc, now)
		}
	}
	a.pred.update(req.Core, line, hit)
	a.note(req, hit, now, done)
	return Result{Done: done, Hit: hit}
}

// fillAfterMiss installs the fetched line, writing back a dirty victim.
// The TAD read that discovered the miss already streamed the victim's
// data, so no extra stacked read is needed for the writeback. Posted
// operations are issued at the demand arrival time (never future-dated).
// loc is the TAD's location, which Access has already mapped.
func (a *Alloy) fillAfterMiss(idx, tag uint64, loc addr.Location, at int64) {
	entry := a.tags[idx]
	if entry&tadValid != 0 && entry&tadDirty != 0 {
		victim := addr.Phys((uint64(entry>>2)*a.numBlocks + idx) << 6)
		a.offchip.Write(victim, at, 64)
	}
	a.tags[idx] = uint32(tag<<2) | tadValid
	a.stacked.WriteAt(loc, at, tadBytes)
}

// Reset implements Resetter: the scheme returns to its just-constructed
// state in place, reusing the packed tag array and both controllers. Only
// cfg.Seed may differ from the construction Config (Alloy draws no
// randomness, so the seed is recorded but unused).
//
//bmlint:hotpath
func (a *Alloy) Reset(cfg Config) bool {
	if !sameGeometry(cfg, a.cfg) {
		return false
	}
	a.cfg = cfg
	a.baseStats.reset()
	a.stacked.Reset()
	a.offchip.Reset()
	for i := range a.tags {
		a.tags[i] = 0
	}
	a.pred.resetHitLeaning()
	a.WastedParallelBytes = 0
	return true
}

// ResetStats implements Scheme.
func (a *Alloy) ResetStats() {
	a.baseStats.reset()
	a.WastedParallelBytes = 0
	a.stacked.ResetStats()
	a.offchip.ResetStats()
}

// Report implements Scheme.
func (a *Alloy) Report() Report {
	r := Report{Scheme: a.Name()}
	a.fill(&r)
	off := a.offchip.Stats()
	r.OffchipReadBytes = off.BytesRead
	r.OffchipWriteBytes = off.BytesWrit
	r.WastedFetchBytes = a.WastedParallelBytes
	r.Stacked = a.stacked.Stats()
	r.Offchip = off
	return r
}
