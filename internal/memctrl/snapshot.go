package memctrl

import "bimodal/internal/snapshot"

// SnapshotState implements snapshot.Snapshotter: every channel's timing
// state plus the deferred write queues. Each queued write is encoded
// oldest first as the controller holds it: drain key, column, bytes and
// arrival time.
func (c *Controller) SnapshotState(w *snapshot.Writer) {
	w.Tag("memctrl")
	for _, ch := range c.channels {
		ch.SnapshotState(w)
	}
	for ch := range c.writeQ {
		q := &c.writeQ[ch]
		w.U32(uint32(q.n))
		for i, s := 0, q.head; i < q.n; i++ {
			pw := &q.buf[s]
			w.U64(pw.key)
			w.U64(pw.col)
			w.I64(pw.bytes)
			w.I64(pw.at)
			if s++; s == len(q.buf) {
				s = 0
			}
		}
	}
}

// RestoreState implements snapshot.Snapshotter. c must have been built
// from the same Config as the producer. A queue longer than
// WriteQueueDepth fails the restore: a live controller never holds one.
// Every key names a bank of the geometry, whose bank count is a power of
// two (addr.NewInterleave), and a row the key holds.
func (c *Controller) RestoreState(r *snapshot.Reader) {
	r.Tag("memctrl")
	for _, ch := range c.channels {
		ch.RestoreState(r)
	}
	for ch := range c.writeQ {
		q := &c.writeQ[ch]
		n := r.SliceLen(32)
		if r.Err() != nil {
			return
		}
		if n > c.cfg.WriteQueueDepth {
			r.Failf("channel %d write queue holds %d writes, depth is %d", ch, n, c.cfg.WriteQueueDepth)
			return
		}
		q.head, q.n = 0, n
		for s := 0; s < n; s++ {
			q.buf[s] = pendingWrite{key: r.U64(), col: r.U64(), bytes: r.I64(), at: r.I64()}
		}
	}
}
