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

// SnapshotState implements snapshot.Snapshotter. The entry table is the
// bulk of a Bi-Modal snapshot and is encoded as one Extend table.
func (w *WayLocator) SnapshotState(sw *snapshot.Writer) {
	sw.Tag("waylocator")
	b := sw.Extend(len(w.entries) * wlEntryBytes)
	for i := range w.entries {
		e := &w.entries[i]
		binary.LittleEndian.PutUint64(b, e.blockID)
		binary.LittleEndian.PutUint64(b[8:], e.meta)
		b = b[wlEntryBytes:]
	}
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
	b := r.Next(len(w.entries) * wlEntryBytes)
	if r.Err() != nil {
		return
	}
	for i := range w.entries {
		w.entries[i] = wlEntry{blockID: binary.LittleEndian.Uint64(b), meta: binary.LittleEndian.Uint64(b[8:])}
		b = b[wlEntryBytes:]
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

// Encoded widths of the set table: each set is a header (X and Y as
// int64, then the big and small occupancy masks and the small-way dirty
// mask) followed by its big ways (tag, dirty, used) and small ways (line
// ID), the layout Cache holds them in.
const (
	setHeaderBytes = 8 + 8 + 4 + 4 + 4
	bigWayBytes    = 8 + 4 + 4
	smallWayBytes  = 8
)

// setTableBytes is the encoded size of the set table; every set carries
// MaxBig big and MaxSmall small way slots (NewCache).
func (c *Cache) setTableBytes() int {
	return len(c.sets) * (setHeaderBytes + c.params.MaxBig()*bigWayBytes + c.params.MaxSmall()*smallWayBytes)
}

// SnapshotState implements snapshot.Snapshotter: per-set state, occupancy
// and dirty masks and way metadata as one Extend table, followed by the
// locator, predictor, tracker histogram, global adaptation state,
// replacement rng and statistics. The eviction scratch buffer is transient
// (truncated by every Access) and is not part of the state.
func (c *Cache) SnapshotState(w *snapshot.Writer) {
	w.Tag("corecache")
	b := w.Extend(c.setTableBytes())
	big, small := c.big, c.small
	for i := range c.sets {
		s := &c.sets[i]
		binary.LittleEndian.PutUint64(b, uint64(s.st.X))
		binary.LittleEndian.PutUint64(b[8:], uint64(s.st.Y))
		binary.LittleEndian.PutUint32(b[16:], s.validBig)
		binary.LittleEndian.PutUint32(b[20:], s.validSmall)
		binary.LittleEndian.PutUint32(b[24:], s.dirtySmall)
		b = b[setHeaderBytes:]
		for j := range big[:c.maxBig] {
			bw := &big[j]
			binary.LittleEndian.PutUint64(b, bw.tag)
			binary.LittleEndian.PutUint32(b[8:], bw.dirty)
			binary.LittleEndian.PutUint32(b[12:], bw.used)
			b = b[bigWayBytes:]
		}
		for j, ln := range small[:c.maxSmall] {
			binary.LittleEndian.PutUint64(b[j*smallWayBytes:], ln)
		}
		b = b[c.maxSmall*smallWayBytes:]
		big, small = big[c.maxBig:], small[c.maxSmall:]
	}
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
	b := r.Next(c.setTableBytes())
	if r.Err() != nil {
		return
	}
	big, small := c.big, c.small
	for i := range c.sets {
		s := &c.sets[i]
		s.st.X = int(binary.LittleEndian.Uint64(b))
		s.st.Y = int(binary.LittleEndian.Uint64(b[8:]))
		s.validBig = binary.LittleEndian.Uint32(b[16:])
		s.validSmall = binary.LittleEndian.Uint32(b[20:])
		s.dirtySmall = binary.LittleEndian.Uint32(b[24:])
		b = b[setHeaderBytes:]
		for j := range big[:c.maxBig] {
			big[j] = bigWay{
				tag:   binary.LittleEndian.Uint64(b),
				dirty: binary.LittleEndian.Uint32(b[8:]),
				used:  binary.LittleEndian.Uint32(b[12:]),
			}
			b = b[bigWayBytes:]
		}
		for j := range small[:c.maxSmall] {
			small[j] = binary.LittleEndian.Uint64(b[j*smallWayBytes:])
		}
		b = b[c.maxSmall*smallWayBytes:]
		big, small = big[c.maxBig:], small[c.maxSmall:]
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
