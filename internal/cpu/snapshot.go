package cpu

import "bimodal/internal/snapshot"

// The engine snapshot seam is the phase boundary: runPhase re-primes every
// core when a phase starts (drawing a fresh access and discarding the one
// primed at the previous phase's exit), so a snapshot taken after warmup
// returns — trailing primes included — followed by a measured phase replays
// the exact instruction-by-instruction sequence of an uninterrupted
// WarmupContext + MeasureAfterWarmupContext. next/key/remaining are therefore not state: the measure
// phase overwrites them before use. What must survive is each core's clock,
// in-flight miss window, cumulative counters and, critically, its trace
// generator cursor. Read-ahead may have carried the generator past the
// engine; snapshotState rewinds it to the engine's position first.

// SnapshotState implements snapshot.Snapshotter: every core, the optional
// prefetcher, and the scheme (which must itself be a Snapshotter).
func (e *Engine) SnapshotState(w *snapshot.Writer) {
	w.Tag("engine")
	for _, c := range e.cores {
		c.snapshotState(w)
	}
	w.Bool(e.pf != nil)
	if e.pf != nil {
		e.pf.SnapshotState(w)
	}
	s, ok := e.scheme.(snapshot.Snapshotter)
	if !ok {
		panic("cpu: scheme " + e.scheme.Name() + " does not implement snapshot.Snapshotter")
	}
	s.SnapshotState(w)
}

// RestoreState implements snapshot.Snapshotter. e must have been built
// congruently (same generators, core config, prefetcher and scheme
// construction) to the snapshot producer.
func (e *Engine) RestoreState(r *snapshot.Reader) {
	e.moved = true
	r.Tag("engine")
	for _, c := range e.cores {
		c.restoreState(r)
	}
	hasPf := r.Bool()
	if r.Err() == nil && hasPf != (e.pf != nil) {
		r.Failf("prefetcher presence mismatch: blob %v, engine %v", hasPf, e.pf != nil)
		return
	}
	if e.pf != nil {
		e.pf.RestoreState(r)
	}
	s, ok := e.scheme.(snapshot.Snapshotter)
	if !ok {
		r.Failf("scheme %s does not implement snapshot.Snapshotter", e.scheme.Name())
		return
	}
	s.RestoreState(r)
}

func (c *core) snapshotState(w *snapshot.Writer) {
	c.ra.mustBeCurrent()
	c.ra.sync()
	w.Tag("core")
	g, ok := c.gen.(snapshot.Snapshotter)
	if !ok {
		panic("cpu: generator " + c.gen.Name() + " does not implement snapshot.Snapshotter")
	}
	g.SnapshotState(w)
	w.I64(c.time)
	w.U32(uint32(len(c.outstanding) - c.outHead))
	for _, m := range c.outstanding[c.outHead:] {
		w.I64(m.done)
		w.I64(m.inst)
	}
	w.I64(c.lastDone)
	w.I64(c.insts)
	w.I64(c.result.Cycles)
	w.I64(c.result.Insts)
	w.I64(c.result.Accesses)
	w.I64(c.result.Reads)
	w.I64(c.result.Hits)
	w.I64(c.result.LatencySum)
	w.U32(uint32(len(c.tens)))
	for _, t := range c.tens {
		w.I64(t.Accesses)
		w.I64(t.Reads)
		w.I64(t.Hits)
		w.I64(t.LatencySum)
		w.I64(t.Insts)
	}
}

func (c *core) restoreState(r *snapshot.Reader) {
	c.ra.drop()
	r.Tag("core")
	g, ok := c.gen.(snapshot.Snapshotter)
	if !ok {
		r.Failf("generator %s does not implement snapshot.Snapshotter", c.gen.Name())
		return
	}
	g.RestoreState(r)
	c.time = r.I64()
	n := r.SliceLen(16)
	if r.Err() != nil {
		return
	}
	c.outstanding = c.outstanding[:0]
	c.outHead = 0
	for i := 0; i < n; i++ {
		c.outstanding = append(c.outstanding, inflight{done: r.I64(), inst: r.I64()})
	}
	c.lastDone = r.I64()
	c.insts = r.I64()
	c.result.Cycles = r.I64()
	c.result.Insts = r.I64()
	c.result.Accesses = r.I64()
	c.result.Reads = r.I64()
	c.result.Hits = r.I64()
	c.result.LatencySum = r.I64()
	nt := r.SliceLen(40)
	if r.Err() != nil {
		return
	}
	if nt != len(c.tens) {
		r.Failf("tenant attribution count %d does not match the engine's %d", nt, len(c.tens))
		return
	}
	for i := range c.tens {
		c.tens[i] = TenantResult{
			Tenant:     i,
			Accesses:   r.I64(),
			Reads:      r.I64(),
			Hits:       r.I64(),
			LatencySum: r.I64(),
			Insts:      r.I64(),
		}
	}
}

// SnapshotState implements snapshot.Snapshotter.
func (p *Prefetcher) SnapshotState(w *snapshot.Writer) {
	w.Tag("prefetcher")
	for _, f := range p.filters {
		w.U64s(f)
	}
	w.I64(p.Issued)
	w.I64(p.Suppressed)
}

// RestoreState implements snapshot.Snapshotter.
func (p *Prefetcher) RestoreState(r *snapshot.Reader) {
	r.Tag("prefetcher")
	for _, f := range p.filters {
		r.U64s(f)
	}
	p.Issued = r.I64()
	p.Suppressed = r.I64()
}
