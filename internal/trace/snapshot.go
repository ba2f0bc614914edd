package trace

import (
	"bimodal/internal/addr"
	"bimodal/internal/snapshot"
)

// snapshotAccess serializes one Access (15 bytes).
func snapshotAccess(w *snapshot.Writer, a Access) {
	w.U64(uint64(a.Addr))
	w.Bool(a.Write)
	w.U32(a.Gap)
	w.Bool(a.Dep)
	w.U8(a.Tenant)
}

// restoreAccess deserializes one Access.
func restoreAccess(r *snapshot.Reader) Access {
	return Access{
		Addr:   addr.Phys(r.U64()),
		Write:  r.Bool(),
		Gap:    r.U32(),
		Dep:    r.Bool(),
		Tenant: r.U8(),
	}
}

// accessBytes is the serialized width of one Access (8+1+4+1+1).
const accessBytes = 15

// SnapshotState implements snapshot.Snapshotter. The profile and
// placement are construction-time configuration; the mutable state is the
// shared rng, both pipeline halves and the undrained episode tail.
func (g *Synthetic) SnapshotState(w *snapshot.Writer) {
	w.Tag("synthetic")
	g.rng.SnapshotState(w)
	g.ap.snapshotState(w)
	g.arr.snapshotState(w)
	tail := g.pending[g.head:]
	w.U32(uint32(len(tail)))
	for _, a := range tail {
		snapshotAccess(w, a)
	}
}

// RestoreState implements snapshot.Snapshotter. g must have been built by
// NewSynthetic with the same profile, base and seed family as the
// producer; only mutable state is overwritten.
func (g *Synthetic) RestoreState(r *snapshot.Reader) {
	r.Tag("synthetic")
	g.rng.RestoreState(r)
	g.ap.restoreState(r)
	g.arr.restoreState(r)
	n := r.SliceLen(accessBytes)
	g.pending = g.pending[:0]
	g.head = 0
	for i := 0; i < n; i++ {
		g.pending = append(g.pending, restoreAccess(r))
	}
	g.loaded = true
	g.tail = nil
	g.begin()
}

// snapshotState serializes the address process (Zipf cursor and the
// revisit history ring; the placement geometry is reconstructed).
func (a *addressProcess) snapshotState(w *snapshot.Writer) {
	w.Tag("addrproc")
	a.zipf.SnapshotState(w)
	w.U32(uint32(len(a.recent)))
	for _, p := range a.recent {
		w.U64(uint64(p))
	}
	w.Int(a.rpos)
}

// restoreState mirrors snapshotState with range validation.
func (a *addressProcess) restoreState(r *snapshot.Reader) {
	r.Tag("addrproc")
	a.zipf.RestoreState(r)
	m := r.SliceLen(8)
	if m > cap(a.recent) {
		r.Failf("revisit ring length %d exceeds window %d", m, cap(a.recent))
		return
	}
	a.recent = a.recent[:0]
	for i := 0; i < m; i++ {
		a.recent = append(a.recent, addr.Phys(r.U64()))
	}
	rpos := r.Int()
	if r.Err() != nil {
		return
	}
	if rpos < 0 || (m > 0 && rpos >= cap(a.recent)) || (m == 0 && rpos != 0) {
		r.Failf("revisit ring cursor %d out of range for window %d", rpos, cap(a.recent))
		return
	}
	a.rpos = rpos
}

// snapshotState serializes the arrival process (the ON-burst countdown).
func (a *arrivalProc) snapshotState(w *snapshot.Writer) {
	w.Tag("arrival")
	w.Int(a.left)
}

// restoreState mirrors snapshotState with range validation.
func (a *arrivalProc) restoreState(r *snapshot.Reader) {
	r.Tag("arrival")
	left := r.Int()
	if r.Err() != nil {
		return
	}
	if left < 0 || (a.burstLen == 0 && left != 0) {
		r.Failf("arrival burst countdown %d invalid for burst length %d", left, a.burstLen)
		return
	}
	a.left = left
}

// SnapshotState implements snapshot.Snapshotter: the weave rng, every
// tenant stream and the scheduling cursor.
func (iv *Interleaver) SnapshotState(w *snapshot.Writer) {
	w.Tag("interleaver")
	iv.rng.SnapshotState(w)
	for _, s := range iv.subs {
		s.SnapshotState(w)
	}
	w.Int(iv.cur)
	w.Int(iv.burst)
}

// RestoreState implements snapshot.Snapshotter. iv must have been built
// by NewInterleaver with the same streams, placement and seed family as
// the producer.
func (iv *Interleaver) RestoreState(r *snapshot.Reader) {
	r.Tag("interleaver")
	iv.rng.RestoreState(r)
	for _, s := range iv.subs {
		s.RestoreState(r)
	}
	cur := r.Int()
	burst := r.Int()
	if r.Err() != nil {
		return
	}
	if cur < 0 || cur >= len(iv.subs) || burst < 0 {
		r.Failf("interleaver cursor (%d, %d) out of range for %d tenants", cur, burst, len(iv.subs))
		return
	}
	iv.cur = cur
	iv.burst = burst
}

// SnapshotState implements snapshot.Snapshotter (the replay cursor).
func (s *SliceGen) SnapshotState(w *snapshot.Writer) {
	w.Tag("slicegen")
	w.Int(s.pos)
}

// RestoreState implements snapshot.Snapshotter. The slice itself is
// configuration: the restored generator must carry the same accesses.
func (s *SliceGen) RestoreState(r *snapshot.Reader) {
	r.Tag("slicegen")
	pos := r.Int()
	if r.Err() != nil {
		return
	}
	if pos < 0 || (len(s.Accs) > 0 && pos >= len(s.Accs)) || (len(s.Accs) == 0 && pos != 0) {
		r.Failf("slicegen cursor %d out of range for %d accesses", pos, len(s.Accs))
		return
	}
	s.pos = pos
}
