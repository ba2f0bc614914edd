package dramcache

import (
	"encoding/binary"

	"bimodal/internal/addr"
	"bimodal/internal/snapshot"
)

// This file implements snapshot.Snapshotter for every registered scheme.
// Only mutable state is serialized: geometry, latencies and derived
// constants are reconstructed from Config by the constructor, and the
// prefix spec hash binds a blob to the configuration that produced it
// (DESIGN.md section 14).

func (b *baseStats) snapshotState(w *snapshot.Writer) {
	w.I64(b.accesses)
	w.I64(b.hits)
	w.I64(b.latencySum)
	w.I64(b.latencyN)
}

func (b *baseStats) restoreState(r *snapshot.Reader) {
	b.accesses = r.I64()
	b.hits = r.I64()
	b.latencySum = r.I64()
	b.latencyN = r.I64()
}

// SnapshotState implements snapshot.Snapshotter.
func (p *regionPredictor) SnapshotState(w *snapshot.Writer) {
	w.Tag("regionpred")
	w.U8s(p.counters[:])
}

// RestoreState implements snapshot.Snapshotter.
func (p *regionPredictor) RestoreState(r *snapshot.Reader) {
	r.Tag("regionpred")
	r.U8s(p.counters[:])
}

// assocWayBytes is the encoded width of one assocArray way: valid, tag,
// lastUse, aux.
const assocWayBytes = 1 + 8 + 8 + 8

func (a *assocArray) snapshotState(w *snapshot.Writer) {
	w.Tag("assoc")
	t := w.Sparse(len(a.ways), assocWayBytes)
	for i := range a.ways {
		e := &a.ways[i]
		if *e == (assocWay{}) {
			continue
		}
		b := t.Put(i)
		snapshot.PutBool(b, e.valid)
		binary.LittleEndian.PutUint64(b[1:], e.tag)
		binary.LittleEndian.PutUint64(b[9:], e.lastUse)
		binary.LittleEndian.PutUint64(b[17:], e.aux)
	}
	t.Close()
	w.U64(a.clock)
}

func (a *assocArray) restoreState(r *snapshot.Reader) {
	r.Tag("assoc")
	clear(a.ways)
	t := r.Sparse(len(a.ways), assocWayBytes)
	for i, b := t.Next(); b != nil; i, b = t.Next() {
		e := &a.ways[i]
		e.valid = r.DecodeBool(b[0])
		e.tag = binary.LittleEndian.Uint64(b[1:])
		e.lastUse = binary.LittleEndian.Uint64(b[9:])
		e.aux = binary.LittleEndian.Uint64(b[17:])
	}
	a.clock = r.U64()
}

func (v *victimBuffer) snapshotState(w *snapshot.Writer) {
	w.Tag("victimbuf")
	w.U64(uint64(len(v.ring)))
	for _, a := range v.ring {
		w.U64(uint64(a))
	}
	w.Int(v.pos)
}

// restoreState rebuilds the presence map from the restored ring (zero
// entries are empty slots: put never records address 0 twice and the
// ring starts zeroed).
func (v *victimBuffer) restoreState(r *snapshot.Reader) {
	r.Tag("victimbuf")
	n := r.U64()
	if r.Err() != nil {
		return
	}
	if n != uint64(len(v.ring)) {
		r.Failf("victim buffer length %d does not match configured %d", n, len(v.ring))
		return
	}
	for i := range v.ring {
		v.ring[i] = addr.Phys(r.U64())
	}
	pos := r.Int()
	if r.Err() != nil {
		return
	}
	if pos < 0 || pos >= len(v.ring) {
		r.Failf("victim buffer cursor %d out of range", pos)
		return
	}
	v.pos = pos
	clear(v.present)
	for _, a := range v.ring {
		if a != 0 {
			v.present[a] = true
		}
	}
}

// SnapshotState implements snapshot.Snapshotter.
func (b *BiModal) SnapshotState(w *snapshot.Writer) {
	w.Tag("bimodal")
	b.baseStats.snapshotState(w)
	b.cache.SnapshotState(w)
	b.stacked.SnapshotState(w)
	b.offchip.SnapshotState(w)
	w.I64(b.metaReads)
	w.I64(b.metaRowHits)
	w.I64(b.WastedProbeBytes)
	w.I64(b.VictimHits)
	f := w.Extend(8 * len(b.metaWriteFilter))
	for i, row := range b.metaWriteFilter {
		binary.LittleEndian.PutUint64(f[8*i:], row)
	}
	w.I64(b.MetaWrites)
	w.I64(b.MetaWritesCoalesced)
	w.Bool(b.missPred != nil)
	if b.missPred != nil {
		b.missPred.SnapshotState(w)
	}
	w.Bool(b.victims != nil)
	if b.victims != nil {
		b.victims.snapshotState(w)
	}
}

// RestoreState implements snapshot.Snapshotter. b must have been built
// with the same Config and options as the producer.
func (b *BiModal) RestoreState(r *snapshot.Reader) {
	r.Tag("bimodal")
	b.baseStats.restoreState(r)
	b.cache.RestoreState(r)
	b.stacked.RestoreState(r)
	b.offchip.RestoreState(r)
	b.metaReads = r.I64()
	b.metaRowHits = r.I64()
	b.WastedProbeBytes = r.I64()
	b.VictimHits = r.I64()
	if f := r.Next(8 * len(b.metaWriteFilter)); f != nil {
		for i := range b.metaWriteFilter {
			b.metaWriteFilter[i] = binary.LittleEndian.Uint64(f[8*i:])
		}
	}
	b.MetaWrites = r.I64()
	b.MetaWritesCoalesced = r.I64()
	hasPred := r.Bool()
	if r.Err() == nil && hasPred != (b.missPred != nil) {
		r.Failf("miss predictor presence mismatch: blob %v, scheme %v", hasPred, b.missPred != nil)
		return
	}
	if b.missPred != nil {
		b.missPred.RestoreState(r)
	}
	hasVictims := r.Bool()
	if r.Err() == nil && hasVictims != (b.victims != nil) {
		r.Failf("victim buffer presence mismatch: blob %v, scheme %v", hasVictims, b.victims != nil)
		return
	}
	if b.victims != nil {
		b.victims.restoreState(r)
	}
}

// SnapshotState implements snapshot.Snapshotter.
func (a *Alloy) SnapshotState(w *snapshot.Writer) {
	w.Tag("alloy")
	a.baseStats.snapshotState(w)
	t := w.Sparse(len(a.tags), 4)
	for i, tag := range a.tags {
		if tag != 0 {
			binary.LittleEndian.PutUint32(t.Put(i), tag)
		}
	}
	t.Close()
	a.pred.SnapshotState(w)
	w.I64(a.WastedParallelBytes)
	a.stacked.SnapshotState(w)
	a.offchip.SnapshotState(w)
}

// RestoreState implements snapshot.Snapshotter.
func (a *Alloy) RestoreState(r *snapshot.Reader) {
	r.Tag("alloy")
	a.baseStats.restoreState(r)
	clear(a.tags)
	t := r.Sparse(len(a.tags), 4)
	for i, b := t.Next(); b != nil; i, b = t.Next() {
		a.tags[i] = binary.LittleEndian.Uint32(b)
	}
	a.pred.RestoreState(r)
	a.WastedParallelBytes = r.I64()
	a.stacked.RestoreState(r)
	a.offchip.RestoreState(r)
}

// SnapshotState implements snapshot.Snapshotter.
func (l *LohHill) SnapshotState(w *snapshot.Writer) {
	w.Tag("lohhill")
	l.baseStats.snapshotState(w)
	l.sets.snapshotState(w)
	w.I64(l.metaReads)
	w.I64(l.metaRowHits)
	l.stacked.SnapshotState(w)
	l.offchip.SnapshotState(w)
}

// RestoreState implements snapshot.Snapshotter.
func (l *LohHill) RestoreState(r *snapshot.Reader) {
	r.Tag("lohhill")
	l.baseStats.restoreState(r)
	l.sets.restoreState(r)
	l.metaReads = r.I64()
	l.metaRowHits = r.I64()
	l.stacked.RestoreState(r)
	l.offchip.RestoreState(r)
}

// SnapshotState implements snapshot.Snapshotter.
func (a *ATCache) SnapshotState(w *snapshot.Writer) {
	w.Tag("atcache")
	a.baseStats.snapshotState(w)
	a.sets.snapshotState(w)
	a.tagCache.SnapshotState(w)
	w.I64(a.metaReads)
	w.I64(a.metaRowHits)
	a.stacked.SnapshotState(w)
	a.offchip.SnapshotState(w)
}

// RestoreState implements snapshot.Snapshotter.
func (a *ATCache) RestoreState(r *snapshot.Reader) {
	r.Tag("atcache")
	a.baseStats.restoreState(r)
	a.sets.restoreState(r)
	a.tagCache.RestoreState(r)
	a.metaReads = r.I64()
	a.metaRowHits = r.I64()
	a.stacked.RestoreState(r)
	a.offchip.RestoreState(r)
}

// fpcStateBytes is the encoded width of one Footprint page state:
// present, used, dirty, trigger.
const fpcStateBytes = 4 + 4 + 4 + 8

// SnapshotState implements snapshot.Snapshotter.
func (f *Footprint) SnapshotState(w *snapshot.Writer) {
	w.Tag("footprint")
	f.baseStats.snapshotState(w)
	f.pages.snapshotState(w)
	t := w.Sparse(len(f.state), fpcStateBytes)
	for i := range f.state {
		p := &f.state[i]
		if *p == (fpcPage{}) {
			continue
		}
		b := t.Put(i)
		binary.LittleEndian.PutUint32(b, p.present)
		binary.LittleEndian.PutUint32(b[4:], p.used)
		binary.LittleEndian.PutUint32(b[8:], p.dirty)
		binary.LittleEndian.PutUint64(b[12:], p.trigger)
	}
	t.Close()
	w.U32s(f.hist)
	w.I64(f.Bypassed)
	w.I64(f.WastedFetchBytes)
	w.I64(f.SubMisses)
	f.stacked.SnapshotState(w)
	f.offchip.SnapshotState(w)
}

// RestoreState implements snapshot.Snapshotter.
func (f *Footprint) RestoreState(r *snapshot.Reader) {
	r.Tag("footprint")
	f.baseStats.restoreState(r)
	f.pages.restoreState(r)
	clear(f.state)
	t := r.Sparse(len(f.state), fpcStateBytes)
	for i, b := t.Next(); b != nil; i, b = t.Next() {
		p := &f.state[i]
		p.present = binary.LittleEndian.Uint32(b)
		p.used = binary.LittleEndian.Uint32(b[4:])
		p.dirty = binary.LittleEndian.Uint32(b[8:])
		p.trigger = binary.LittleEndian.Uint64(b[12:])
	}
	r.U32s(f.hist)
	f.Bypassed = r.I64()
	f.WastedFetchBytes = r.I64()
	f.SubMisses = r.I64()
	f.stacked.RestoreState(r)
	f.offchip.RestoreState(r)
}
