package trace

import (
	"math"

	"bimodal/internal/addr"
	"bimodal/internal/xrand"
)

// This file is the address-process half of the traffic-model pipeline:
// addressProcess owns page selection (Zipf popularity, page permutation,
// revisit history) and the episode-synthesis methods on Synthetic turn a
// selected page into the seq/stride/chase/random access patterns. The
// arrival half (instruction gaps) lives in arrival.go; the two halves
// draw from Synthetic's single rng in a fixed interleaving so streams
// stay reproducible draw for draw.

// addressProcess selects the pages a stream touches: a Zipf popularity
// draw scattered by a bijective page permutation, biased toward recently
// touched pages by the revisit history ring.
type addressProcess struct {
	// base, pageMask, spanMask and permMul are construction-time placement
	// geometry; revisitFrac is the profile knob the page selector reads.
	base addr.Phys //bmlint:resetconst //bmlint:nosnapshot
	// pageMask is FootprintPages-1 (the footprint is a power of two).
	pageMask uint64 //bmlint:resetconst //bmlint:nosnapshot
	// spanMask is FootprintBytes-1, for mask-based wraparound in
	// sequential episodes.
	spanMask addr.Phys //bmlint:resetconst //bmlint:nosnapshot
	// permMul is an odd multiplier giving a bijective page permutation so
	// popular pages are scattered across the address space.
	permMul uint64 //bmlint:resetconst //bmlint:nosnapshot
	// revisitFrac is the probability an episode revisits a recent page.
	revisitFrac float64 //bmlint:resetconst //bmlint:nosnapshot
	zipf        *xrand.Zipf
	// zrng is the rng zipf draws from, so marks can save and restore its
	// words; they round-trip snapshots through zipf.
	zrng *xrand.Rand //bmlint:resetconst //bmlint:nosnapshot
	// recent is the revisit history ring of episode page bases.
	recent []addr.Phys
	rpos   int
	// undo logs the ring entries the current episode overwrote, oldest
	// first, and origLen and origPos are the ring's length and cursor
	// before it: marks recover the ring from them (mark.go). undo holds at
	// most a window of entries and shares recent's allocation. begin
	// re-derives all three after a restore, so they are not state.
	undo    []addr.Phys //bmlint:nosnapshot
	origLen int         //bmlint:nosnapshot
	origPos int         //bmlint:nosnapshot
}

// init configures the process for prof placed at base, with zipfRng
// owning the popularity draws (forked from the composing generator's rng
// so the two draw sequences stay decoupled).
func (a *addressProcess) init(prof Profile, base addr.Phys, zipfRng *xrand.Rand) {
	window := prof.RevisitWindow
	if window <= 0 {
		window = 64
	}
	a.base = base
	a.pageMask = prof.FootprintPages - 1
	a.spanMask = addr.Phys(prof.FootprintBytes() - 1)
	a.permMul = 0x9E3779B97F4A7C15 | 1
	a.revisitFrac = prof.RevisitFrac
	a.zipf = xrand.NewZipf(zipfRng, int(prof.FootprintPages), prof.ZipfS)
	a.zrng = zipfRng
	ring := make([]addr.Phys, 2*window)
	a.recent = ring[:0:window]
	a.undo = ring[window:window]
}

// reset returns the process to its just-initialized state, re-seeding the
// Zipf sampler from zipfSeed (the composing generator draws it from its
// freshly seeded rng, mirroring the constructor's Fork).
//
//bmlint:hotpath
func (a *addressProcess) reset(zipfSeed uint64) {
	a.zipf.Seed(zipfSeed)
	a.recent = a.recent[:0]
	a.rpos = 0
	a.begin()
}

// pageAddr maps a popularity rank to the base address of its page.
func (a *addressProcess) pageAddr(rank int) addr.Phys {
	page := (uint64(rank) * a.permMul) & a.pageMask
	return a.base + addr.Phys(page*PageBytes)
}

// episodePage picks the page for the next episode: usually a fresh
// Zipf-popularity draw, sometimes a revisit of a recent page. Revisits are
// biased toward the most recently touched pages (loop-level locality), the
// behaviour behind the paper's Figure 5 observation that cache hits
// concentrate in the top MRU ways.
func (a *addressProcess) episodePage(rng *xrand.Rand) addr.Phys {
	if len(a.recent) > 0 && rng.Bool(a.revisitFrac) {
		if rng.Bool(0.6) {
			// Hot loop: one of the last few pages (newest entries sit just
			// behind the ring cursor).
			span := 8
			if span > len(a.recent) {
				span = len(a.recent)
			}
			back := 1 + rng.Intn(span)
			idx := (a.rpos - back + len(a.recent)) % len(a.recent)
			if len(a.recent) < cap(a.recent) {
				// Ring not full yet: newest entries are at the end.
				idx = len(a.recent) - back
			}
			return a.recent[idx]
		}
		return a.recent[rng.Intn(len(a.recent))]
	}
	page := a.pageAddr(a.zipf.Next())
	if cap(a.recent) > 0 {
		if len(a.recent) < cap(a.recent) {
			a.recent = append(a.recent, page)
		} else {
			if len(a.undo) < cap(a.undo) {
				a.undo = append(a.undo, a.recent[a.rpos])
			}
			a.recent[a.rpos] = page
			a.rpos = (a.rpos + 1) % cap(a.recent)
		}
	}
	return page
}

// episodeLen draws a geometric length with the given mean (min 1).
func (g *Synthetic) episodeLen(mean int) int {
	if mean <= 1 {
		return 1
	}
	u := g.rng.Float64()
	v := int(-float64(mean) * math.Log(1-u))
	if v < 1 {
		v = 1
	}
	// Clamp to a multiple of the footprint walk so episodes stay bounded.
	if v > 16*mean {
		v = 16 * mean
	}
	return v
}

// refill synthesizes the next episode into pending, recording the state it
// starts from.
func (g *Synthetic) refill() {
	g.begin()
	g.loaded = false
	p := &g.prof
	page := g.ap.episodePage(g.rng)
	u := g.rng.Float64()
	switch {
	case u < p.SeqFrac:
		g.seqEpisode(page)
	case u < p.SeqFrac+p.StrideFrac:
		g.strideEpisode(page)
	case u < p.SeqFrac+p.StrideFrac+p.PointerFrac:
		g.chaseEpisode(page)
	default:
		g.randomEpisode(page)
	}
}

// seqEpisode walks consecutive 64B lines starting at the page base,
// continuing into following pages of the footprint when the run is long.
func (g *Synthetic) seqEpisode(page addr.Phys) {
	n := g.episodeLen(g.prof.RunLines)
	start := page - g.ap.base
	for i := 0; i < n; i++ {
		g.emit(g.ap.base+(start+addr.Phys(uint64(i)*LineBytes))&g.ap.spanMask, false)
	}
}

// strideEpisode touches every Stride-th line of the page.
func (g *Synthetic) strideEpisode(page addr.Phys) {
	start := g.rng.Intn(g.prof.Stride)
	for i := start; i < LinesPerPage; i += g.prof.Stride {
		g.emit(page+addr.Phys(i*LineBytes), false)
	}
}

// chaseEpisode emits a chain of dependent random lines. Each step lands on
// a page drawn with the same revisit bias as episode starts: pointer
// structures wander within hot regions, which is what concentrates cache
// hits in the recently used ways (Figure 5) even for irregular programs.
func (g *Synthetic) chaseEpisode(page addr.Phys) {
	n := g.episodeLen(max(g.prof.ChaseLen, 1))
	prev := page + addr.Phys(g.rng.Intn(LinesPerPage)*LineBytes)
	g.emit(prev, false)
	const linesPerBlock = 512 / LineBytes
	for i := 1; i < n; i++ {
		var next addr.Phys
		if g.rng.Bool(0.3) {
			// Pool-allocated neighbours: the next node shares the previous
			// node's 512B block.
			next = prev.Block(512) + addr.Phys(g.rng.Intn(linesPerBlock)*LineBytes)
		} else {
			next = g.ap.episodePage(g.rng) + addr.Phys(g.rng.Intn(LinesPerPage)*LineBytes)
		}
		g.emit(next, true)
		prev = next
	}
}

// randomEpisode emits one or two independent random lines within the page.
func (g *Synthetic) randomEpisode(page addr.Phys) {
	n := 1 + g.rng.Intn(2)
	for i := 0; i < n; i++ {
		g.emit(page+addr.Phys(g.rng.Intn(LinesPerPage)*LineBytes), false)
	}
}
