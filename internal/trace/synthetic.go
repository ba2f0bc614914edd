package trace

import (
	"bimodal/internal/addr"
	"bimodal/internal/xrand"
)

// Synthetic generates a stream from a Profile by composing the two halves
// of the traffic-model pipeline over one shared rng: the address process
// (episode page selection and synthesis, address.go) and the arrival
// process (instruction-gap spacing, arrival.go). Sharing the rng keeps
// the draw sequence — and therefore every committed golden — a pure
// function of (profile, base, seed). Create with NewSynthetic.
type Synthetic struct {
	// prof is construction-time identity (the snapshot seam rebuilds
	// congruent generators from the same profile and placement).
	prof Profile //bmlint:resetconst //bmlint:nosnapshot
	rng  *xrand.Rand
	// ap selects episode pages; arr spaces accesses in instruction time.
	ap  addressProcess
	arr arrivalProc
	// pending holds the current episode; head indexes the next access to
	// hand out. Draining by index instead of re-slicing lets refill reuse
	// the buffer's full capacity, so steady-state generation is
	// allocation-free once the longest episode has been seen.
	pending []Access
	head    int
}

// NewSynthetic builds a generator for prof, placing its footprint at base
// (each core of a multiprogrammed mix gets a disjoint base) and drawing all
// randomness from seed.
func NewSynthetic(prof Profile, base addr.Phys, seed uint64) *Synthetic {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	rng := xrand.New(seed)
	g := &Synthetic{prof: prof, rng: rng}
	// The Fork draw here is mirrored by Reset's zipf re-seed: both consume
	// exactly one Uint64 from the freshly seeded rng.
	g.ap.init(prof, base, rng.Fork())
	g.arr.init(prof)
	return g
}

// Name implements Generator.
func (g *Synthetic) Name() string { return g.prof.Name }

// Reset implements Generator: it returns the generator to exactly the
// state NewSynthetic(prof, base, seed) produces, reusing the episode and
// revisit buffers. The rng re-seeding mirrors the constructor draw for
// draw: New(seed) followed by a single Uint64 to seed the Zipf sampler's
// fork, so a reset generator replays the identical stream a fresh one
// would.
//
//bmlint:hotpath
func (g *Synthetic) Reset(seed uint64) {
	g.rng.Seed(seed)
	g.ap.reset(g.rng.Uint64())
	g.arr.reset()
	g.pending = g.pending[:0]
	g.head = 0
}

// Profile returns the generating profile.
func (g *Synthetic) Profile() Profile { return g.prof }

// Next implements Generator.
//
//bmlint:hotpath
func (g *Synthetic) Next() Access {
	for g.head >= len(g.pending) {
		g.pending = g.pending[:0]
		g.head = 0
		g.refill()
	}
	a := g.pending[g.head]
	g.head++
	return a
}

// Fill implements Filler by copying whole runs of the pending episode,
// refilling it exactly where Next would.
//
//bmlint:hotpath
func (g *Synthetic) Fill(buf []Access) {
	for len(buf) > 0 {
		if g.head >= len(g.pending) {
			g.pending = g.pending[:0]
			g.head = 0
			g.refill()
			continue
		}
		n := copy(buf, g.pending[g.head:])
		g.head += n
		buf = buf[n:]
	}
}

// emit appends one access, drawing its write flag and then its arrival
// gap — in that order, which the byte-identity of every existing golden
// depends on.
func (g *Synthetic) emit(a addr.Phys, dep bool) {
	g.pending = append(g.pending, Access{
		Addr:  a,
		Write: g.rng.Bool(g.prof.WriteFrac),
		Gap:   g.arr.next(g.rng),
		Dep:   dep,
	})
}
