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

// wlEntryBytes is the encoded width of one way-locator entry: valid, big,
// blockID, way (as int64), lastUse.
const wlEntryBytes = 1 + 1 + 8 + 8 + 8

// SnapshotState implements snapshot.Snapshotter. The entry table is the
// bulk of a Bi-Modal snapshot and is encoded as one Extend table.
func (w *WayLocator) SnapshotState(sw *snapshot.Writer) {
	sw.Tag("waylocator")
	b := sw.Extend(len(w.entries) * wlEntryBytes)
	for i := range w.entries {
		e := &w.entries[i]
		snapshot.PutBool(b, e.valid())
		snapshot.PutBool(b[1:], e.big())
		binary.LittleEndian.PutUint64(b[2:], e.blockID)
		binary.LittleEndian.PutUint64(b[10:], uint64(e.way()))
		binary.LittleEndian.PutUint64(b[18:], e.lastUse())
		b = b[wlEntryBytes:]
	}
	sw.U64(w.clock)
	sw.I64(w.Lookups)
	sw.I64(w.HitsBig)
	sw.I64(w.HitsSml)
}

// RestoreState implements snapshot.Snapshotter. An entry's way and lastUse
// must fit its packed word, and the clock the lastUse field.
func (w *WayLocator) RestoreState(r *snapshot.Reader) {
	r.Tag("waylocator")
	b := r.Next(len(w.entries) * wlEntryBytes)
	if r.Err() != nil {
		return
	}
	for i := range w.entries {
		valid, big := r.DecodeBool(b[0]), r.DecodeBool(b[1])
		way, lastUse := binary.LittleEndian.Uint64(b[10:]), binary.LittleEndian.Uint64(b[18:])
		if way > wlMaxWay || lastUse >= wlClockLimit {
			r.Failf("way-locator entry %d: way %d or lastUse %d does not fit the entry word", i, way, lastUse)
			return
		}
		w.entries[i] = wlEntry{blockID: binary.LittleEndian.Uint64(b[2:]), meta: wlMeta(valid, big, int(way), lastUse)}
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
// int64, then the big and small occupancy masks) followed by its big ways
// (valid, tag, dirty, used) and small ways (valid, lineID, dirty). A way's
// valid byte is its occupancy bit and a small way's dirty byte its
// dirtySmall bit, so a way's valid byte must agree with the header.
const (
	setHeaderBytes = 8 + 8 + 4 + 4
	bigWayBytes    = 1 + 8 + 4 + 4
	smallWayBytes  = 1 + 8 + 1
)

// setTableBytes is the encoded size of the set table; every set carries
// MaxBig big and MaxSmall small way slots (NewCache).
func (c *Cache) setTableBytes() int {
	return len(c.sets) * (setHeaderBytes + c.params.MaxBig()*bigWayBytes + c.params.MaxSmall()*smallWayBytes)
}

// SnapshotState implements snapshot.Snapshotter: per-set state, occupancy
// bitmasks and way metadata as one Extend table, followed by the locator,
// predictor, tracker histogram, global adaptation state, replacement rng
// and statistics. The eviction scratch buffer is transient (truncated by
// every Access) and is not part of the state.
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
		b = b[setHeaderBytes:]
		for j := range big[:c.maxBig] {
			bw := &big[j]
			snapshot.PutBool(b, s.validBig>>uint(j)&1 != 0)
			binary.LittleEndian.PutUint64(b[1:], bw.tag)
			binary.LittleEndian.PutUint32(b[9:], bw.dirty)
			binary.LittleEndian.PutUint32(b[13:], bw.used)
			b = b[bigWayBytes:]
		}
		for j, ln := range small[:c.maxSmall] {
			snapshot.PutBool(b, s.validSmall>>uint(j)&1 != 0)
			binary.LittleEndian.PutUint64(b[1:], ln)
			snapshot.PutBool(b[9:], s.dirtySmall>>uint(j)&1 != 0)
			b = b[smallWayBytes:]
		}
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
// with the same Params (and locator presence) as the producer. Each way's
// valid byte must match its occupancy bit, and the restored state is
// validated with CheckInvariants.
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
		s.dirtySmall = 0
		b = b[setHeaderBytes:]
		for j := range big[:c.maxBig] {
			if valid := r.DecodeBool(b[0]); valid != (s.validBig>>uint(j)&1 != 0) {
				r.Failf("set %d big way %d: valid byte %d disagrees with its occupancy bit", i, j, b[0])
				return
			}
			big[j] = bigWay{
				tag:   binary.LittleEndian.Uint64(b[1:]),
				dirty: binary.LittleEndian.Uint32(b[9:]),
				used:  binary.LittleEndian.Uint32(b[13:]),
			}
			b = b[bigWayBytes:]
		}
		for j := range small[:c.maxSmall] {
			if valid := r.DecodeBool(b[0]); valid != (s.validSmall>>uint(j)&1 != 0) {
				r.Failf("set %d small way %d: valid byte %d disagrees with its occupancy bit", i, j, b[0])
				return
			}
			small[j] = binary.LittleEndian.Uint64(b[1:])
			if r.DecodeBool(b[9]) {
				s.dirtySmall |= 1 << uint(j)
			}
			b = b[smallWayBytes:]
		}
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
