package trace

import (
	"slices"

	"bimodal/internal/addr"
	"bimodal/internal/xrand"
)

// Marks and rewinds (DESIGN.md section 15). The cpu engine reads a core's
// stream ahead of the simulation and must sometimes hand the generator over
// at the engine's position, which is behind: a snapshot at the warmup seam
// encodes the generator. It rewinds to the mark taken before the chunk the
// engine is in was filled, and re-draws what the engine consumed of it.
//
// A mark has a fixed size however long the pending episode is. It holds
// what stood before the episode was synthesized (the rng words, the Zipf
// sampler's rng words, the arrival countdown and the revisit ring) plus the
// offset into the episode, and Rewind synthesizes the episode again. The
// generator keeps that origin at every refill. The ring is the one part an
// episode rewrites as it goes (a chase episode draws a page per step), so
// the address process logs the entries an episode overwrites and a mark
// undoes them on its copy.
//
// A pending episode that refill did not produce cannot be synthesized
// again: the tail RestoreState loads. The first mark inside such a tail
// copies it into the generator, where later marks share it, and Reset and
// RestoreState drop the copy.

// Mark records a generator position for Rewind. Its storage is reused from
// one Mark call to the next, so marking and rewinding allocate nothing once
// a Mark has seen the generator's revisit window and tenant count.
type Mark struct {
	// ep is a Synthetic's position.
	ep episodeMark
	// weave, cur and burst are an Interleaver's weave cursor, and subs
	// holds one position per tenant.
	weave      xrand.Rand
	cur, burst int
	subs       []episodeMark
}

// origin is the generator state an episode is synthesized from, less the
// revisit ring (the address process keeps that through its undo log).
type origin struct {
	rng, zipf xrand.Rand
	left      int
}

// episodeMark is one Synthetic's position: the state its pending episode
// came from and the offset into the episode.
type episodeMark struct {
	from origin
	// ring and rpos are the revisit ring and its cursor at the origin.
	ring []addr.Phys
	rpos int
	head int
	// loaded marks a position inside a pending that refill did not produce
	// (Synthetic.loaded); Rewind then copies the generator's tail back.
	loaded bool
}

// begin records the current state as the origin of the next pending and
// starts a fresh undo log.
//
//bmlint:hotpath
func (g *Synthetic) begin() {
	g.origin = origin{rng: *g.rng, zipf: *g.ap.zrng, left: g.arr.left}
	g.ap.begin()
}

// Mark implements Filler.
//
//bmlint:hotpath
func (g *Synthetic) Mark(m *Mark) { g.mark(&m.ep) }

// Rewind implements Filler.
//
//bmlint:hotpath
func (g *Synthetic) Rewind(m *Mark) { g.rewind(&m.ep) }

// mark records the generator's position in m.
//
//bmlint:hotpath
func (g *Synthetic) mark(m *episodeMark) {
	m.from = g.origin
	m.ring = g.ap.ringAtOrigin(m.ring)
	m.rpos = g.ap.origPos
	m.head = g.head
	m.loaded = g.loaded
	if g.loaded && g.tail == nil && len(g.pending) > 0 {
		g.tail = append(g.tail, g.pending...)
	}
}

// rewind returns the generator to the position m records: the origin
// state, then the episode synthesized from it again (or the loaded tail),
// then the offset.
//
//bmlint:hotpath
func (g *Synthetic) rewind(m *episodeMark) {
	*g.rng, *g.ap.zrng, g.arr.left = m.from.rng, m.from.zipf, m.from.left
	g.ap.recent = append(g.ap.recent[:0], m.ring...)
	g.ap.rpos = m.rpos
	g.pending = g.pending[:0]
	if m.loaded {
		g.pending = append(g.pending, g.tail...)
		g.loaded = true
		g.begin()
	} else {
		g.refill()
	}
	g.head = m.head
}

// begin records the ring's length and cursor as the episode's origin and
// empties the undo log.
//
//bmlint:hotpath
func (a *addressProcess) begin() {
	a.origLen, a.origPos = len(a.recent), a.rpos
	a.undo = a.undo[:0]
}

// ringAtOrigin writes the ring as it stood at the last begin into dst and
// returns it. Ring writes are sequential from the cursor (appends leave the
// cursor alone until the ring is full), so the k-th logged overwrite hit
// slot (origPos+k) mod window, and the log never needs more than a window
// of entries: later overwrites return to slots already logged.
//
//bmlint:hotpath
func (a *addressProcess) ringAtOrigin(dst []addr.Phys) []addr.Phys {
	dst = append(dst[:0], a.recent[:a.origLen]...)
	w := cap(a.recent)
	for k, v := range a.undo {
		if i := (a.origPos + k) % w; i < len(dst) {
			dst[i] = v
		}
	}
	return dst
}

// Mark implements Filler: the weave cursor and every tenant's position.
//
//bmlint:hotpath
func (iv *Interleaver) Mark(m *Mark) {
	m.weave, m.cur, m.burst = *iv.rng, iv.cur, iv.burst
	m.subs = slices.Grow(m.subs[:0], len(iv.subs))[:len(iv.subs)]
	for i, s := range iv.subs {
		s.mark(&m.subs[i])
	}
}

// Rewind implements Filler.
//
//bmlint:hotpath
func (iv *Interleaver) Rewind(m *Mark) {
	*iv.rng, iv.cur, iv.burst = m.weave, m.cur, m.burst
	for i, s := range iv.subs {
		s.rewind(&m.subs[i])
	}
}
