package dramcache

import (
	"bimodal/internal/addr"
	"bimodal/internal/core"
	"bimodal/internal/dram"
	"bimodal/internal/memctrl"
)

// tagCompareCycles is the latency of comparing the (up to 18) tags read
// from the metadata bank against the incoming address.
const tagCompareCycles = 2

// BiModal is the paper's proposed DRAM cache organization as a timing
// scheme: the functional core (internal/core) plus the stacked-DRAM layout
// with a dedicated metadata bank per channel, parallel tag+data access on
// way-locator misses, posted fills/writebacks and 64B-granularity dirty
// writebacks.
type BiModal struct {
	baseStats
	// name and layout are variant identity fixed at construction; cfg is
	// reassigned by Reset and snapshots rebuild geometry from it.
	name    string //bmlint:resetconst //bmlint:nosnapshot
	cfg     Config //bmlint:nosnapshot
	cache   *core.Cache
	stacked *memctrl.Controller
	offchip *memctrl.Controller
	layout  setLayout //bmlint:resetconst //bmlint:nosnapshot

	wlLatency      int64            //bmlint:resetconst //bmlint:nosnapshot
	prefetchBypass bool             //bmlint:resetconst //bmlint:nosnapshot
	missPred       *regionPredictor // nil unless WithMissPredictor
	victims        *victimBuffer    // nil unless WithVictimCache

	// Derived cache-geometry constants hoisted out of the access path: the
	// core.Params accessors copy the whole struct per call, which dominates
	// profiles when invoked several times per access.
	bigBlock  uint64 //bmlint:resetconst //bmlint:nosnapshot — big block bytes
	setBytes  uint64 //bmlint:resetconst //bmlint:nosnapshot — set bytes
	subMask   uint64 //bmlint:resetconst //bmlint:nosnapshot — SubBlocks-1
	metaBytes int64  //bmlint:resetconst //bmlint:nosnapshot — metadata bytes per set
	metaRows  uint64 //bmlint:resetconst //bmlint:nosnapshot — set-metadata records per metadata row

	metaReads   int64
	metaRowHits int64
	// WastedProbeBytes counts off-chip reads issued by mispredicted
	// parallel probes (miss predicted, access actually hit).
	WastedProbeBytes int64
	// VictimHits counts misses served from the victim buffer.
	VictimHits int64

	// metaWriteFilter models the controller's metadata write-combining
	// buffer: dirty-bit and tag updates to a metadata row that already has
	// a pending update are merged instead of issuing another DRAM write
	// (16 sets share one metadata row, so streaming writes coalesce).
	metaWriteFilter [256]uint64
	// MetaWrites / MetaWritesCoalesced count update traffic.
	MetaWrites          int64
	MetaWritesCoalesced int64
}

// BiModalOption customizes NewBiModal.
type BiModalOption func(*biModalOpts)

type biModalOpts struct {
	noLocator      bool
	fixedBig       bool
	coLocatedMeta  bool
	prefetchBypass bool
	missPredictor  bool
	victimEntries  int
	coreParams     *core.Params
	name           string
}

// WithoutLocator disables the way locator: the Bi-Modal-Only ablation of
// Figure 8a (every access reads the DRAM metadata bank).
func WithoutLocator() BiModalOption { return func(o *biModalOpts) { o.noLocator = true } }

// FixedBigBlocks disables bi-modality: the Way-Locator-Only ablation
// (fixed 512B blocks, MinBig = MaxBig).
func FixedBigBlocks() BiModalOption { return func(o *biModalOpts) { o.fixedBig = true } }

// CoLocatedMetadata stores tags in the data rows instead of a dedicated
// metadata bank — the baseline of the Figure 9b row-buffer-hit study.
func CoLocatedMetadata() BiModalOption { return func(o *biModalOpts) { o.coLocatedMeta = true } }

// WithPrefetchBypass makes prefetch requests that miss bypass the cache
// (the PREF_BYPASS configuration of Table VI).
func WithPrefetchBypass() BiModalOption { return func(o *biModalOpts) { o.prefetchBypass = true } }

// WithMissPredictor adds the orthogonal miss-latency optimization of the
// paper's footnote 11: a region-indexed hit/miss predictor issues the
// off-chip read in parallel with the tag access on predicted misses.
func WithMissPredictor() BiModalOption { return func(o *biModalOpts) { o.missPredictor = true } }

// WithVictimCache retains the last n evicted big blocks in a buffer
// probed on misses. The paper's related-work section reports this yields
// very little benefit at the DRAM cache level (little temporal reuse of
// victims); the extension exists to reproduce that negative result.
func WithVictimCache(n int) BiModalOption { return func(o *biModalOpts) { o.victimEntries = n } }

// WithCoreParams overrides the functional cache parameters (sensitivity
// studies: big block size, set size, associativity).
func WithCoreParams(p core.Params) BiModalOption {
	return func(o *biModalOpts) { o.coreParams = &p }
}

// WithName overrides the scheme name in reports.
func WithName(n string) BiModalOption { return func(o *biModalOpts) { o.name = n } }

// NewBiModal builds the scheme for cfg.
func NewBiModal(cfg Config, opts ...BiModalOption) *BiModal {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var o biModalOpts
	for _, f := range opts {
		f(&o)
	}
	params := core.DefaultParams(cfg.CacheBytes)
	if o.coreParams != nil {
		params = *o.coreParams
	}
	params.Seed = cfg.Seed
	if o.fixedBig {
		params.MinBig = params.MaxBig()
	}
	var wl *core.WayLocator
	wlLat := int64(0)
	if !o.noLocator {
		wl = core.NewWayLocator(cfg.WayLocatorK, params.BigBlock)
		wlLat = core.LatencyCycles(core.StorageKB(cfg.WayLocatorK, cfg.memBits()))
	}
	stacked, offchip := cfg.controllers()
	name := o.name
	if name == "" {
		switch {
		case o.fixedBig && !o.noLocator:
			name = "WayLocatorOnly"
		case o.noLocator && !o.fixedBig:
			name = "BiModalOnly"
		case o.noLocator && o.fixedBig:
			name = "Fixed512"
		default:
			name = "BiModal"
		}
	}
	var mp *regionPredictor
	if o.missPredictor {
		mp = newHitLeaning()
	}
	var vb *victimBuffer
	if o.victimEntries > 0 {
		vb = newVictimBuffer(o.victimEntries)
	}
	sg := stacked.Config().Geometry
	b := &BiModal{
		name:           name,
		cfg:            cfg,
		cache:          core.NewCache(params, wl),
		stacked:        stacked,
		offchip:        offchip,
		layout:         newSetLayout(sg.Channels, sg.Banks(), sg.PageBytes, params, !o.coLocatedMeta),
		wlLatency:      wlLat,
		prefetchBypass: o.prefetchBypass,
		missPred:       mp,
		victims:        vb,
		bigBlock:       params.BigBlock,
		setBytes:       params.SetBytes,
		subMask:        uint64(params.SubBlocks() - 1),
		metaBytes:      params.MetadataBytesPerSet(),
	}
	b.metaRows = b.layout.pageBytes / uint64(b.metaBytes)
	return b
}

// memBits returns the physical address width implied by the preset scale
// (4GB/8GB/16GB of main memory for 4/8/16 cores).
func (c Config) memBits() uint {
	switch {
	case c.Cores >= 16:
		return 34
	case c.Cores >= 8:
		return 33
	default:
		return 32
	}
}

// Name implements Scheme.
func (b *BiModal) Name() string { return b.name }

// Core exposes the functional cache for experiment drivers.
func (b *BiModal) Core() *core.Cache { return b.cache }

// dataColumn returns the byte column of the 64B line at p within its
// set's page, given the way it occupies.
func (b *BiModal) dataColumn(p addr.Phys, big bool, way int) uint64 {
	if big {
		sub := (uint64(p) >> 6) & b.subMask
		return uint64(way)*b.bigBlock + sub*core.SmallBlock
	}
	return b.setBytes - uint64(way+1)*core.SmallBlock
}

// readMeta reads the set's tags from the metadata bank, tracking its
// row-buffer behaviour.
func (b *BiModal) readMeta(set uint64, at int64) int64 {
	done, rr := b.stacked.ReadAt(b.layout.metaLoc(set), at, b.metaBytes)
	b.metaReads++
	if rr == dram.RowHit {
		b.metaRowHits++
	}
	return done
}

// writeMeta posts a metadata update (dirty bits, tag install); not on the
// critical path, and merged by the write-combining buffer when the row
// already has a pending update.
func (b *BiModal) writeMeta(set uint64, at int64) {
	b.MetaWrites++
	row, _ := b.layout.prDiv.divmod(set) // set / metaRows, divider precomputed
	idx := row & uint64(len(b.metaWriteFilter)-1)
	if b.metaWriteFilter[idx] == row+1 {
		b.MetaWritesCoalesced++
		return
	}
	b.metaWriteFilter[idx] = row + 1
	b.stacked.WriteAt(b.layout.metaLoc(set), at, core.SmallBlock)
}

// Access implements Scheme.
//
//bmlint:hotpath
func (b *BiModal) Access(req Request, now int64) Result {
	// Prefetch bypass: a missing prefetch is served straight from memory
	// without disturbing cache state.
	if req.Prefetch && b.prefetchBypass && !b.cache.Contains(req.Addr) {
		done, _ := b.offchip.Read(req.Addr.Line64(), now, core.SmallBlock)
		b.note(req, false, now, done)
		return Result{Done: done, Hit: false}
	}

	// Optional miss predictor: launch the off-chip probe alongside the
	// tag access on predicted misses (reads only — writes are posted).
	var earlyDone int64
	if b.missPred != nil && !req.Write {
		if !b.missPred.predictHit(req.Core, req.Addr) {
			earlyDone, _ = b.offchip.Read(req.Addr.Line64(), now+b.wlLatency, core.SmallBlock)
		}
	}

	out := b.cache.Access(req.Addr, req.Write)
	var done int64
	switch {
	case out.Hit && out.LocatorHit:
		done = b.locatorHitPath(req, out, now)
	case out.Hit:
		done = b.tagPathHit(req, out, now)
	default:
		done = b.missPath(req, out, now, earlyDone)
	}
	if b.missPred != nil && !req.Write {
		b.missPred.update(req.Core, req.Addr, out.Hit)
		if out.Hit && earlyDone > 0 {
			b.WastedProbeBytes += core.SmallBlock
		}
	}
	b.note(req, out.Hit, now, done)
	return Result{Done: done, Hit: out.Hit}
}

// locatorHitPath: SRAM lookup then a single DRAM data access; metadata is
// read neither for the tags (the locator is never wrong) nor for recency
// (replacement is random-not-recent). Writes post a dirty-bit update.
func (b *BiModal) locatorHitPath(req Request, out core.Outcome, now int64) int64 {
	t := now + b.wlLatency
	loc := b.layout.dataLoc(out.SetIndex, b.dataColumn(req.Addr, out.Big, out.Way))
	if req.Write {
		done := b.stacked.WriteAt(loc, t, core.SmallBlock)
		b.writeMeta(out.SetIndex, t)
		return done
	}
	done, _ := b.stacked.ReadAt(loc, t, core.SmallBlock)
	return done
}

// tagPathHit: way-locator miss but DRAM cache hit. The metadata bank read
// proceeds in parallel with activating the data row (Figure 3); once the
// tags match, a column access on the (now open) data row returns the line.
func (b *BiModal) tagPathHit(req Request, out core.Outcome, now int64) int64 {
	t := now + b.wlLatency
	tagsDone := b.readMeta(out.SetIndex, t)
	col := b.dataColumn(req.Addr, out.Big, out.Way)
	loc := b.layout.dataLoc(out.SetIndex, col)
	rowReady, _ := b.stacked.OpenAt(loc, t)
	start := max64(tagsDone+tagCompareCycles, rowReady)
	if req.Write {
		done := b.stacked.WriteAt(loc, start, core.SmallBlock)
		b.writeMeta(out.SetIndex, start)
		return done
	}
	done, _ := b.stacked.ReadAt(loc, start, core.SmallBlock)
	return done
}

// missPath: tags read (in parallel with a futile data-row open), then the
// off-chip fetch of the predicted granularity with critical-64B-first
// delivery. Fill, metadata update and dirty writebacks are posted.
// earlyDone, when positive, is the completion time of a miss-predictor
// probe that already fetched the critical 64B in parallel.
func (b *BiModal) missPath(req Request, out core.Outcome, now int64, earlyDone int64) int64 {
	t := now + b.wlLatency
	var tagsKnown int64
	if out.LocatorHit {
		tagsKnown = t // cannot happen for misses, but keep the invariant clear
	} else {
		tagsDone := b.readMeta(out.SetIndex, t)
		b.stacked.OpenAt(b.layout.dataLoc(out.SetIndex, 0), t)
		tagsKnown = tagsDone + tagCompareCycles
	}

	// Critical 64B first from off-chip memory; a correctly predicted miss
	// already has it in flight and only waits for the tag check, and a
	// victim-buffer hit skips the off-chip fetch entirely.
	// Posted traffic below is issued at the demand's arrival time, never
	// at a future completion time: the busy-time model must not reserve
	// bank/bus slots in the future, or later-arriving demand reads queue
	// behind fictitious reservations and latencies diverge. Ordering
	// within a bank still emerges from the bank timeline itself.
	blockBase := req.Addr.Block(b.bigBlock)
	var critDone int64
	fromVictim := b.victims != nil && out.Big && b.victims.take(blockBase)
	switch {
	case fromVictim:
		b.VictimHits++
		critDone = tagsKnown + victimReadCycles
	case earlyDone > 0:
		critDone = max64(earlyDone, tagsKnown)
	default:
		critDone, _ = b.offchip.Read(req.Addr.Line64(), tagsKnown, core.SmallBlock)
	}
	if !fromVictim {
		if rest := out.FillBytes - core.SmallBlock; rest > 0 {
			b.offchip.Read(blockBase, now, rest) // posted: rest of the block
		}
	}

	// Posted fill into the data row and metadata install.
	fillCol := b.dataColumn(req.Addr, out.Big, out.Way)
	if out.Big {
		fillCol = uint64(out.Way) * b.bigBlock
	}
	b.stacked.WriteAt(b.layout.dataLoc(out.SetIndex, fillCol), now, out.FillBytes)
	b.writeMeta(out.SetIndex, now)

	// Posted writebacks: read dirty sub-blocks from the data row, write
	// them off-chip at 64B granularity (Section III-B5). Evicted big
	// blocks also enter the victim buffer when one is configured.
	for _, ev := range out.Evictions {
		if b.victims != nil && ev.Big {
			b.victims.put(ev.Addr)
		}
		dirty := ev.DirtyBytes()
		if dirty == 0 {
			continue
		}
		col := b.setBytes - uint64(ev.Way+1)*core.SmallBlock
		if ev.Big {
			col = uint64(ev.Way) * b.bigBlock
		}
		b.stacked.ReadAt(b.layout.dataLoc(out.SetIndex, col), now, dirty)
		mask := ev.DirtyMask
		for sub := 0; mask != 0; sub++ {
			if mask&1 != 0 {
				b.offchip.Write(ev.Addr+addr.Phys(sub*core.SmallBlock), now, core.SmallBlock)
			}
			mask >>= 1
		}
	}
	return critDone
}

// Reset implements Resetter: the scheme returns to its just-constructed
// state in place (constructor options preserved), reusing the functional
// cache's metadata arrays and both controllers. Only cfg.Seed may differ
// from the construction Config.
//
//bmlint:hotpath
func (b *BiModal) Reset(cfg Config) bool {
	if !sameGeometry(cfg, b.cfg) {
		return false
	}
	p := b.cache.Params()
	p.Seed = cfg.Seed
	if !b.cache.Reset(p) {
		return false
	}
	b.cfg = cfg
	b.baseStats.reset()
	b.stacked.Reset()
	b.offchip.Reset()
	b.metaReads, b.metaRowHits = 0, 0
	b.WastedProbeBytes = 0
	b.VictimHits = 0
	b.metaWriteFilter = [256]uint64{}
	b.MetaWrites, b.MetaWritesCoalesced = 0, 0
	if b.missPred != nil {
		b.missPred.resetHitLeaning()
	}
	if b.victims != nil {
		b.victims.reset()
	}
	return true
}

// ResetStats implements Scheme.
func (b *BiModal) ResetStats() {
	b.baseStats.reset()
	b.metaReads, b.metaRowHits = 0, 0
	b.WastedProbeBytes = 0
	b.VictimHits = 0
	b.MetaWrites, b.MetaWritesCoalesced = 0, 0
	b.cache.ResetStats()
	b.stacked.ResetStats()
	b.offchip.ResetStats()
}

// Report implements Scheme.
func (b *BiModal) Report() Report {
	r := Report{Scheme: b.name}
	b.fill(&r)
	if wl := b.cache.Locator(); wl != nil {
		r.LocatorLookups = wl.Lookups
		r.LocatorHits = wl.HitsBig + wl.HitsSml
	}
	r.MetaReads = b.metaReads
	r.MetaRowHits = b.metaRowHits
	off := b.offchip.Stats()
	r.OffchipReadBytes = off.BytesRead
	r.OffchipWriteBytes = off.BytesWrit
	r.WastedFetchBytes = b.cache.Stats.WastedFetchBytes
	r.SmallFraction = b.cache.Stats.SmallFraction()
	r.Stacked = b.stacked.Stats()
	r.Offchip = off
	return r
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
