package dram

import "bimodal/internal/snapshot"

// SnapshotState implements snapshot.Snapshotter: per-bank row/timing
// state, per-rank activate windows, the shared data-bus horizon and the
// activity statistics. Timing constants are configuration.
func (c *Channel) SnapshotState(w *snapshot.Writer) {
	w.Tag("dramchannel")
	for _, b := range c.banks {
		w.I64(b.openRow)
		w.I64(b.nextCAS)
		w.I64(b.actAt)
		w.I64(b.wrRecover)
		w.I64(b.lastEpoch)
	}
	for _, rk := range c.ranks {
		w.I64(rk.lastAct)
		for _, t := range rk.recentActs {
			w.I64(t)
		}
		w.Int(rk.actPos)
	}
	w.I64(c.busAt)
	w.I64(c.stats.Reads)
	w.I64(c.stats.Writes)
	w.I64(c.stats.Opens)
	w.I64(c.stats.Activates)
	w.I64(c.stats.Precharge)
	w.I64(c.stats.RowHits)
	w.I64(c.stats.RowMisses)
	w.I64(c.stats.Refreshes)
	w.I64(c.stats.BytesRead)
	w.I64(c.stats.BytesWrit)
	w.I64(c.stats.BusyCPU)
}

// RestoreState implements snapshot.Snapshotter. c must have been built
// with the same timing and geometry as the producer.
func (c *Channel) RestoreState(r *snapshot.Reader) {
	r.Tag("dramchannel")
	for i := range c.banks {
		c.banks[i].openRow = r.I64()
		c.banks[i].nextCAS = r.I64()
		c.banks[i].actAt = r.I64()
		c.banks[i].wrRecover = r.I64()
		c.banks[i].lastEpoch = r.I64()
	}
	for i := range c.ranks {
		c.ranks[i].lastAct = r.I64()
		for j := range c.ranks[i].recentActs {
			c.ranks[i].recentActs[j] = r.I64()
		}
		pos := r.Int()
		if r.Err() != nil {
			return
		}
		if pos < 0 || pos >= len(c.ranks[i].recentActs) {
			r.Failf("rank activate ring cursor %d out of range", pos)
			return
		}
		c.ranks[i].actPos = pos
	}
	c.busAt = r.I64()
	c.stats.Reads = r.I64()
	c.stats.Writes = r.I64()
	c.stats.Opens = r.I64()
	c.stats.Activates = r.I64()
	c.stats.Precharge = r.I64()
	c.stats.RowHits = r.I64()
	c.stats.RowMisses = r.I64()
	c.stats.Refreshes = r.I64()
	c.stats.BytesRead = r.I64()
	c.stats.BytesWrit = r.I64()
	c.stats.BusyCPU = r.I64()
}
