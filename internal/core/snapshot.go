package core

import (
	"encoding/binary"

	"bimodal/internal/snapshot"
)

// This file implements snapshot.Snapshotter for the functional Bi-Modal
// cache and its satellite structures. Only mutable state is serialized;
// geometry, derived constants and table sizes are reconstructed from
// Params by the constructor, and the prefix spec hash guarantees the
// restoring object was built from the same configuration as the producer
// (see internal/snapshot and DESIGN.md section 14).

// SnapshotState implements snapshot.Snapshotter.
func (s *SizePredictor) SnapshotState(w *snapshot.Writer) {
	w.Tag("sizepred")
	w.U8s(s.table)
	w.I64(s.Predictions)
	w.I64(s.PredBig)
	w.I64(s.Updates)
	w.I64(s.UpBig)
}

// RestoreState implements snapshot.Snapshotter.
func (s *SizePredictor) RestoreState(r *snapshot.Reader) {
	r.Tag("sizepred")
	r.U8s(s.table)
	s.Predictions = r.I64()
	s.PredBig = r.I64()
	s.Updates = r.I64()
	s.UpBig = r.I64()
	if r.Err() != nil {
		return
	}
	for i, v := range s.table {
		if v > 3 {
			r.Failf("size predictor counter %d saturates above 3 (entry %d)", v, i)
			return
		}
	}
}

// SnapshotState implements snapshot.Snapshotter (the utilization
// histogram; the predictor pointer is shared and snapshotted by its
// owner).
func (t *Tracker) SnapshotState(w *snapshot.Writer) {
	w.Tag("tracker")
	t.Hist.SnapshotState(w)
}

// RestoreState implements snapshot.Snapshotter.
func (t *Tracker) RestoreState(r *snapshot.Reader) {
	r.Tag("tracker")
	t.Hist.RestoreState(r)
}

// SnapshotState implements snapshot.Snapshotter.
func (g *GlobalState) SnapshotState(w *snapshot.Writer) {
	w.Tag("global")
	w.Int(g.state.X)
	w.Int(g.state.Y)
	w.I64(g.dBig)
	w.I64(g.dSmall)
	w.I64(g.accesses)
	w.I64(g.Transitions)
}

// RestoreState implements snapshot.Snapshotter.
func (g *GlobalState) RestoreState(r *snapshot.Reader) {
	r.Tag("global")
	st := State{X: r.Int(), Y: r.Int()}
	dBig, dSmall, accesses, transitions := r.I64(), r.I64(), r.I64(), r.I64()
	if r.Err() != nil {
		return
	}
	if !g.params.stateValid(st) {
		r.Failf("global state %s illegal for the cache geometry", st)
		return
	}
	g.state = st
	g.dBig, g.dSmall, g.accesses, g.Transitions = dBig, dSmall, accesses, transitions
}

// wlEntryBytes is the encoded width of one way-locator entry: its block ID
// and its packed meta word (valid, big, way, lastUse).
const wlEntryBytes = 8 + 8

// SnapshotState implements snapshot.Snapshotter. The entry table is a
// sparse table: after a short warmup most entries were never written.
func (w *WayLocator) SnapshotState(sw *snapshot.Writer) {
	sw.Tag("waylocator")
	t := sw.Sparse(len(w.entries), wlEntryBytes)
	for i := range w.entries {
		e := &w.entries[i]
		if *e == (wlEntry{}) {
			continue
		}
		b := t.Put(i)
		binary.LittleEndian.PutUint64(b, e.blockID)
		binary.LittleEndian.PutUint64(b[8:], e.meta)
	}
	t.Close()
	sw.U64(w.clock)
	sw.I64(w.Lookups)
	sw.I64(w.HitsBig)
	sw.I64(w.HitsSml)
}

// RestoreState implements snapshot.Snapshotter. The clock must fit the
// 56-bit lastUse stamp; Cache.RestoreState checks the entries against the
// sets.
func (w *WayLocator) RestoreState(r *snapshot.Reader) {
	r.Tag("waylocator")
	clear(w.entries)
	t := r.Sparse(len(w.entries), wlEntryBytes)
	for i, b := t.Next(); b != nil; i, b = t.Next() {
		w.entries[i] = wlEntry{blockID: binary.LittleEndian.Uint64(b), meta: binary.LittleEndian.Uint64(b[8:])}
	}
	w.clock = r.U64()
	w.Lookups = r.I64()
	w.HitsBig = r.I64()
	w.HitsSml = r.I64()
	if r.Err() == nil && w.clock >= wlClockLimit {
		r.Failf("way-locator clock %d does not fit the 56-bit lastUse stamp", w.clock)
	}
}

// snapshotStats serializes the functional counter block.
func snapshotStats(w *snapshot.Writer, s *CacheStats) {
	w.I64(s.Accesses)
	w.I64(s.Hits)
	w.I64(s.HitsBig)
	w.I64(s.HitsSmall)
	w.I64(s.MissPredBig)
	w.I64(s.MissPredSml)
	w.I64(s.FallbackBig)
	w.I64(s.FetchedBytes)
	w.I64(s.WastedFetchBytes)
	w.I64(s.WritebackBytes)
	w.I64(s.Evictions)
	w.I64(s.StateChanges)
}

// restoreStats deserializes the functional counter block.
func restoreStats(r *snapshot.Reader, s *CacheStats) {
	s.Accesses = r.I64()
	s.Hits = r.I64()
	s.HitsBig = r.I64()
	s.HitsSmall = r.I64()
	s.MissPredBig = r.I64()
	s.MissPredSml = r.I64()
	s.FallbackBig = r.I64()
	s.FetchedBytes = r.I64()
	s.WastedFetchBytes = r.I64()
	s.WritebackBytes = r.I64()
	s.Evictions = r.I64()
	s.StateChanges = r.I64()
}

// Encoded widths of the set table: a dense table of set headers (X and Y
// as int64, then the big and small occupancy masks and the small-way dirty
// mask), then every set's big ways (tag, dirty, used) and small ways (line
// ID) as two sparse tables over the flat arrays Cache holds them in.
const (
	setHeaderBytes = 8 + 8 + 4 + 4 + 4
	bigWayBytes    = 8 + 4 + 4
	smallWayBytes  = 8
)

// SnapshotState implements snapshot.Snapshotter: the set headers, the big
// and small ways, then the locator, predictor, tracker histogram, global
// adaptation state, replacement rng and statistics. The eviction scratch
// buffer is transient (truncated by every Access) and is not part of the
// state.
func (c *Cache) SnapshotState(w *snapshot.Writer) {
	w.Tag("corecache")
	b := w.Extend(len(c.sets) * setHeaderBytes)
	for i := range c.sets {
		s := &c.sets[i]
		binary.LittleEndian.PutUint64(b, uint64(s.st.X))
		binary.LittleEndian.PutUint64(b[8:], uint64(s.st.Y))
		binary.LittleEndian.PutUint32(b[16:], s.validBig)
		binary.LittleEndian.PutUint32(b[20:], s.validSmall)
		binary.LittleEndian.PutUint32(b[24:], s.dirtySmall)
		b = b[setHeaderBytes:]
	}
	t := w.Sparse(len(c.big), bigWayBytes)
	for i := range c.big {
		bw := &c.big[i]
		if *bw == (bigWay{}) {
			continue
		}
		b := t.Put(i)
		binary.LittleEndian.PutUint64(b, bw.tag)
		binary.LittleEndian.PutUint32(b[8:], bw.dirty)
		binary.LittleEndian.PutUint32(b[12:], bw.used)
	}
	t.Close()
	t = w.Sparse(len(c.small), smallWayBytes)
	for i, ln := range c.small {
		if ln != 0 {
			binary.LittleEndian.PutUint64(t.Put(i), ln)
		}
	}
	t.Close()
	w.Bool(c.locator != nil)
	if c.locator != nil {
		c.locator.SnapshotState(w)
	}
	c.pred.SnapshotState(w)
	c.tracker.SnapshotState(w)
	c.global.SnapshotState(w)
	c.rng.SnapshotState(w)
	snapshotStats(w, &c.Stats)
}

// RestoreState implements snapshot.Snapshotter. c must have been built
// with the same Params (and locator presence) as the producer. The
// restored state is validated with CheckInvariants, which also checks
// every valid locator entry against the sets.
func (c *Cache) RestoreState(r *snapshot.Reader) {
	r.Tag("corecache")
	b := r.Next(len(c.sets) * setHeaderBytes)
	if r.Err() != nil {
		return
	}
	for i := range c.sets {
		s := &c.sets[i]
		s.st.X = int(binary.LittleEndian.Uint64(b))
		s.st.Y = int(binary.LittleEndian.Uint64(b[8:]))
		s.validBig = binary.LittleEndian.Uint32(b[16:])
		s.validSmall = binary.LittleEndian.Uint32(b[20:])
		s.dirtySmall = binary.LittleEndian.Uint32(b[24:])
		b = b[setHeaderBytes:]
	}
	clear(c.big)
	t := r.Sparse(len(c.big), bigWayBytes)
	for i, b := t.Next(); b != nil; i, b = t.Next() {
		c.big[i] = bigWay{
			tag:   binary.LittleEndian.Uint64(b),
			dirty: binary.LittleEndian.Uint32(b[8:]),
			used:  binary.LittleEndian.Uint32(b[12:]),
		}
	}
	clear(c.small)
	t = r.Sparse(len(c.small), smallWayBytes)
	for i, b := t.Next(); b != nil; i, b = t.Next() {
		c.small[i] = binary.LittleEndian.Uint64(b)
	}
	hasLocator := r.Bool()
	if r.Err() == nil && hasLocator != (c.locator != nil) {
		r.Failf("locator presence mismatch: blob %v, cache %v", hasLocator, c.locator != nil)
		return
	}
	if c.locator != nil {
		c.locator.RestoreState(r)
	}
	c.pred.RestoreState(r)
	c.tracker.RestoreState(r)
	c.global.RestoreState(r)
	c.rng.RestoreState(r)
	restoreStats(r, &c.Stats)
	if r.Err() != nil {
		return
	}
	if err := c.CheckInvariants(); err != nil {
		r.Failf("restored cache state violates invariants: %v", err)
	}
}
