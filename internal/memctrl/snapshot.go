package memctrl

import "bimodal/internal/snapshot"

// SnapshotState implements snapshot.Snapshotter: every channel's timing
// state plus the deferred write queues and the controller's time horizon.
// Each queued write is encoded oldest first as channel, rank, bank within
// the rank, row, column, bytes and arrival time.
func (c *Controller) SnapshotState(w *snapshot.Writer) {
	w.Tag("memctrl")
	for _, ch := range c.channels {
		ch.SnapshotState(w)
	}
	g := c.cfg.Geometry
	for ch := range c.writeQ {
		q := &c.writeQ[ch]
		w.U32(uint32(q.n))
		for i, s := 0, q.head; i < q.n; i++ {
			pw := &q.buf[s]
			bank := int(pw.key >> c.rowBits)
			w.Int(ch)
			w.Int(g.Rank(bank))
			w.Int(bank % g.BanksPerRnk)
			w.U64(pw.key & c.rowMask)
			w.U64(pw.col)
			w.I64(pw.bytes)
			w.I64(pw.at)
			if s++; s == len(q.buf) {
				s = 0
			}
		}
	}
	w.I64(c.lastNow)
}

// RestoreState implements snapshot.Snapshotter. c must have been built
// from the same Config as the producer. A queue longer than
// WriteQueueDepth, or an entry that is not on its queue's channel, lies
// outside the geometry or has a row too wide for the drain key, fails
// the restore: a live controller never holds one.
func (c *Controller) RestoreState(r *snapshot.Reader) {
	r.Tag("memctrl")
	for _, ch := range c.channels {
		ch.RestoreState(r)
	}
	g := c.cfg.Geometry
	for ch := range c.writeQ {
		q := &c.writeQ[ch]
		n := r.SliceLen(48)
		if r.Err() != nil {
			return
		}
		if n > c.cfg.WriteQueueDepth {
			r.Failf("channel %d write queue holds %d writes, depth is %d", ch, n, c.cfg.WriteQueueDepth)
			return
		}
		q.head, q.n = 0, n
		for s := 0; s < n; s++ {
			wch, rank, bank, row := r.Int(), r.Int(), r.Int(), r.U64()
			col, bytes, at := r.U64(), r.I64(), r.I64()
			if r.Err() != nil {
				return
			}
			switch {
			case wch != ch:
				r.Failf("write queued on channel %d is for channel %d", ch, wch)
			case rank < 0 || rank >= g.Ranks || bank < 0 || bank >= g.BanksPerRnk:
				r.Failf("queued write to rank %d bank %d outside %d ranks of %d banks", rank, bank, g.Ranks, g.BanksPerRnk)
			case row&^c.rowMask != 0:
				r.Failf("queued write row %d wider than %d bits", row, c.rowBits)
			}
			if r.Err() != nil {
				return
			}
			q.buf[s] = pendingWrite{key: uint64(rank*g.BanksPerRnk+bank)<<c.rowBits | row, col: col, bytes: bytes, at: at}
		}
	}
	c.lastNow = r.I64()
}
