package sram

import (
	"encoding/binary"

	"bimodal/internal/snapshot"
)

// wayBytes is the encoded width of one way: Valid, Dirty, Tag, Aux,
// lastUse.
const wayBytes = 1 + 1 + 8 + 8 + 8

// SnapshotState implements snapshot.Snapshotter: every way as one sparse
// table (walked set-major, way-minor), the recency clock and the hit/miss
// counters. Geometry is configuration.
func (c *Cache) SnapshotState(w *snapshot.Writer) {
	w.Tag("sram")
	t := w.Sparse(len(c.sets)*c.cfg.Assoc, wayBytes)
	for s, set := range c.sets {
		for i := range set {
			way := &set[i]
			if *way == (Way{}) {
				continue
			}
			b := t.Put(s*c.cfg.Assoc + i)
			snapshot.PutBool(b, way.Valid)
			snapshot.PutBool(b[1:], way.Dirty)
			binary.LittleEndian.PutUint64(b[2:], way.Tag)
			binary.LittleEndian.PutUint64(b[10:], way.Aux)
			binary.LittleEndian.PutUint64(b[18:], way.lastUse)
		}
	}
	t.Close()
	w.U64(c.clock)
	w.I64(c.Hits)
	w.I64(c.Misses)
}

// RestoreState implements snapshot.Snapshotter. c must have been built
// with the same Config as the producer.
func (c *Cache) RestoreState(r *snapshot.Reader) {
	r.Tag("sram")
	for _, set := range c.sets {
		clear(set)
	}
	t := r.Sparse(len(c.sets)*c.cfg.Assoc, wayBytes)
	for i, b := t.Next(); b != nil; i, b = t.Next() {
		way := &c.sets[i/c.cfg.Assoc][i%c.cfg.Assoc]
		way.Valid = r.DecodeBool(b[0])
		way.Dirty = r.DecodeBool(b[1])
		way.Tag = binary.LittleEndian.Uint64(b[2:])
		way.Aux = binary.LittleEndian.Uint64(b[10:])
		way.lastUse = binary.LittleEndian.Uint64(b[18:])
	}
	c.clock = r.U64()
	c.Hits = r.I64()
	c.Misses = r.I64()
}
