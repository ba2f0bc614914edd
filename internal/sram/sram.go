// Package sram provides a functional set-associative SRAM cache model.
//
// It is used for the last-level SRAM cache (LLSC) that filters traffic in
// the full-system example (trace.LLSCFilter), for the ATCache tag cache,
// and as the block-size and MRU-position cache of the Fig 1 and Fig 5
// stream studies and examples/blocksize. The Footprint Cache tag array is
// dramcache.assocArray, not this model. Contents are tracked functionally
// (tags only); timing is a fixed hit latency configured by the owner.
package sram

import (
	"fmt"

	"bimodal/internal/addr"
)

// Config describes a cache. Replacement is LRU.
type Config struct {
	SizeBytes uint64
	BlockSize uint64
	Assoc     int
}

// Way is one cache way's state.
type Way struct {
	Valid bool
	Dirty bool
	Tag   uint64
	// Aux is caller-defined payload (e.g. footprint bits, way pointers).
	Aux uint64
	// lastUse orders recency for LRU.
	lastUse uint64
}

// Victim describes an evicted block.
type Victim struct {
	Valid bool
	Dirty bool
	Addr  addr.Phys
	Aux   uint64
}

// Cache is a set-associative cache over 64-bit tags.
type Cache struct {
	// cfg and the derived field extractor are construction-time geometry;
	// snapshots rebuild them from Config.
	cfg    Config      //bmlint:resetconst //bmlint:nosnapshot
	fields addr.Fields //bmlint:resetconst //bmlint:nosnapshot
	sets   [][]Way
	clock  uint64

	// Statistics.
	Hits   int64
	Misses int64
}

// New builds a cache. SizeBytes / BlockSize / Assoc must describe a
// power-of-two number of sets.
func New(cfg Config) *Cache {
	if cfg.Assoc <= 0 || cfg.BlockSize == 0 || cfg.SizeBytes == 0 {
		panic(fmt.Sprintf("sram: invalid config %+v", cfg))
	}
	blocks := cfg.SizeBytes / cfg.BlockSize
	sets := blocks / uint64(cfg.Assoc)
	if sets == 0 || !addr.IsPow2(sets) {
		panic(fmt.Sprintf("sram: set count %d must be a positive power of two (size=%d block=%d assoc=%d)",
			sets, cfg.SizeBytes, cfg.BlockSize, cfg.Assoc))
	}
	c := &Cache{
		cfg:    cfg,
		fields: addr.NewFields(cfg.BlockSize, sets),
		sets:   make([][]Way, sets),
	}
	backing := make([]Way, int(sets)*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return c
}

// Reset returns the cache to its just-constructed state in place, reusing
// the set backing array: all ways invalidated, recency clock zeroed and
// statistics cleared.
//
//bmlint:hotpath
func (c *Cache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = Way{}
		}
	}
	c.clock = 0
	c.Hits, c.Misses = 0, 0
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Fields returns the address splitter used by this cache.
func (c *Cache) Fields() addr.Fields { return c.fields }

// NumSets returns the set count.
func (c *Cache) NumSets() uint64 { return c.fields.NumSets() }

// Lookup probes for p without modifying recency. It returns the way index
// or -1.
//
//bmlint:hotpath
func (c *Cache) Lookup(p addr.Phys) int {
	set := c.sets[c.fields.Set(p)]
	tag := c.fields.Tag(p)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return i
		}
	}
	return -1
}

// Access probes for p, updating recency and hit/miss statistics. It returns
// (hit, way index). On a miss the way index is -1 and nothing is inserted.
//
//bmlint:hotpath
func (c *Cache) Access(p addr.Phys, write bool) (bool, int) {
	si := c.fields.Set(p)
	set := c.sets[si]
	tag := c.fields.Tag(p)
	c.clock++
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			set[i].lastUse = c.clock
			if write {
				set[i].Dirty = true
			}
			c.Hits++
			return true, i
		}
	}
	c.Misses++
	return false, -1
}

// Insert fills p into its set, evicting a victim if needed. The dirty flag
// marks the incoming block; aux is caller payload. It returns the victim
// (Victim.Valid reports whether a live block was displaced).
func (c *Cache) Insert(p addr.Phys, dirty bool, aux uint64) Victim {
	si := c.fields.Set(p)
	set := c.sets[si]
	tag := c.fields.Tag(p)
	c.clock++
	// Reuse an invalid way if present.
	vi := -1
	for i := range set {
		if !set[i].Valid {
			vi = i
			break
		}
	}
	var victim Victim
	if vi == -1 {
		vi = lruIndex(set)
		w := set[vi]
		victim = Victim{
			Valid: true,
			Dirty: w.Dirty,
			Addr:  c.fields.Rebuild(w.Tag, si),
			Aux:   w.Aux,
		}
	}
	set[vi] = Way{Valid: true, Dirty: dirty, Tag: tag, Aux: aux, lastUse: c.clock}
	return victim
}

// lruIndex picks the least recently used way of a full set.
func lruIndex(set []Way) int {
	vi, oldest := 0, set[0].lastUse
	for i := 1; i < len(set); i++ {
		if set[i].lastUse < oldest {
			vi, oldest = i, set[i].lastUse
		}
	}
	return vi
}

// Invalidate removes p if present, returning whether it was present and
// whether it was dirty.
func (c *Cache) Invalidate(p addr.Phys) (present, dirty bool) {
	si := c.fields.Set(p)
	set := c.sets[si]
	tag := c.fields.Tag(p)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			d := set[i].Dirty
			set[i] = Way{}
			return true, d
		}
	}
	return false, false
}

// Aux returns the aux payload of a resident block (ok=false if absent).
func (c *Cache) Aux(p addr.Phys) (aux uint64, ok bool) {
	if i := c.Lookup(p); i >= 0 {
		return c.sets[c.fields.Set(p)][i].Aux, true
	}
	return 0, false
}

// SetAux updates the aux payload of a resident block.
func (c *Cache) SetAux(p addr.Phys, aux uint64) bool {
	if i := c.Lookup(p); i >= 0 {
		c.sets[c.fields.Set(p)][i].Aux = aux
		return true
	}
	return false
}

// WaysOf returns a copy of the set containing p, MRU-first, for
// instrumentation (e.g. the Figure 5 MRU-position study).
func (c *Cache) WaysOf(p addr.Phys) []Way {
	set := c.sets[c.fields.Set(p)]
	out := make([]Way, len(set))
	copy(out, set)
	// Selection-sort by recency, newest first (assoc is small).
	for i := 0; i < len(out); i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].lastUse > out[best].lastUse {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	return out
}

// MRUIndex returns the recency position (0 = MRU) of p within its set, or
// -1 if absent. Recency positions count valid ways only.
func (c *Cache) MRUIndex(p addr.Phys) int {
	set := c.sets[c.fields.Set(p)]
	tag := c.fields.Tag(p)
	ti := -1
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			ti = i
			break
		}
	}
	if ti == -1 {
		return -1
	}
	pos := 0
	for i := range set {
		if i != ti && set[i].Valid && set[i].lastUse > set[ti].lastUse {
			pos++
		}
	}
	return pos
}

// HitRate returns hits / (hits+misses).
func (c *Cache) HitRate() float64 {
	tot := c.Hits + c.Misses
	if tot == 0 {
		return 0
	}
	return float64(c.Hits) / float64(tot)
}

// ResetStats clears hit/miss counters.
func (c *Cache) ResetStats() { c.Hits, c.Misses = 0, 0 }
