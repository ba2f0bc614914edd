package service

import (
	"context"

	"bimodal/internal/sim"
	"bimodal/internal/spec"
)

// warmGroup is a set of one sweep's store misses that share a warmup
// prefix hash (the warm-state checkpoint subsystem, DESIGN.md section 14).
// Its producer, the group's first miss in sweep order, warms up, seals the
// simulator state into blob and closes ready; every other member restores
// blob instead of running its own warmup. Restore-then-measure is
// byte-identical to a straight-through run (the golden tests in
// internal/sim prove it per scheme), so a group changes only how often
// warmup executes, never result bytes. Blobs live in memory for the sweep
// that sealed them and never enter the result store.
type warmGroup struct {
	prefix   string
	producer int           // sweep cell index of the group's first miss
	ready    chan struct{} // closed once blob is final
	blob     []byte        // sealed warm state; nil if the producer failed
}

// planWarm groups a sweep's store misses (cell indices in sweep order) by
// shared warmup prefix and maps every grouped cell to its group. A miss
// whose prefix no other miss shares is left out and runs cold: nothing in
// the sweep could restore its snapshot, so it seals none.
func planWarm(cells []cellSpec, misses []int) (map[int]*warmGroup, error) {
	plan := map[int]*warmGroup{}
	first := map[string]int{} // prefix -> cell index of its first miss
	for _, i := range misses {
		prefix, ok, err := sharedPrefix(cells[i].rs)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		p, seen := first[prefix]
		if !seen {
			first[prefix] = i
			continue
		}
		g := plan[p]
		if g == nil {
			g = &warmGroup{prefix: prefix, producer: p, ready: make(chan struct{})}
			plan[p] = g
		}
		plan[i] = g
	}
	return plan, nil
}

// sharedPrefix returns the warmup prefix hash under which rs may share a
// warm snapshot with other cells. ok is false when no other cell could
// restore it: the spec has no prefix at all (warmup disabled), or its
// scheme is MeasuredCoupled, whose prefix covers the whole canonical spec
// but its ANTT flag, so only an identical cell, which the result store
// answers, or the cell's ANTT twin could restore the blob.
func sharedPrefix(rs spec.RunSpec) (prefix string, ok bool, err error) {
	d, err := spec.Lookup(rs.Scheme)
	if err != nil {
		return "", false, err
	}
	if d.MeasuredCoupled {
		return "", false, nil
	}
	return rs.PrefixHash()
}

// runWarm runs sweep cell i in-process and reports whether a restored
// snapshot replaced its warmup. g is the cell's warm group, nil when it
// shares its prefix with no other miss of the sweep.
//
// Every grouped cell that completes counts exactly one snapshot hit (a
// restore replaced its warmup) or one miss (it warmed up itself: as the
// producer, or after its producer failed or the blob did not restore).
// Ungrouped cells count neither.
func (s *Server) runWarm(ctx context.Context, c cellSpec, i int, g *warmGroup) (raw []byte, warm bool, err error) {
	switch {
	case g == nil:
		raw, err = c.runJSON(ctx)
		return raw, false, err
	case i == g.producer:
		raw, err = s.produceWarm(ctx, c, g)
		return raw, false, err
	}
	// The producer is an earlier miss, and engine.Map hands indices out in
	// order, so it is already running or done: this wait cannot deadlock.
	select {
	case <-g.ready:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if g.blob != nil {
		raw, err = measureRestored(ctx, c, g.blob, g.prefix)
		if err == nil {
			s.mSnapHits.Inc()
			return raw, true, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	// A failed producer or a blob that does not restore must not fail the
	// cell: it warms up itself.
	s.mSnapMisses.Inc()
	raw, err = c.runJSON(ctx)
	return raw, false, err
}

// produceWarm warms the producer's own simulation, seals the snapshot for
// the rest of the group, then measures on the already-warm state.
func (s *Server) produceWarm(ctx context.Context, c cellSpec, g *warmGroup) ([]byte, error) {
	s.mSnapMisses.Inc()
	sm, err := sim.ForSpec(runPool, c.rs, c.mix, 1)
	if err == nil {
		err = sm.Warmup(ctx)
	}
	if err == nil {
		g.blob = sm.Snapshot(g.prefix)
		s.mSnapBytes.Add(int64(len(g.blob)))
	}
	close(g.ready)
	if err != nil {
		return nil, err
	}
	return measureJSON(ctx, c, sm)
}

// measureRestored overwrites a congruent simulation's state from the
// snapshot blob and runs the measured window. A pooled simulator is always
// fully reset (or fresh), so restoring over it is exactly NewSim+Restore.
// A failed Restore leaves partial state: that simulator is discarded,
// never Put back.
func measureRestored(ctx context.Context, c cellSpec, blob []byte, prefix string) ([]byte, error) {
	s, err := sim.ForSpec(runPool, c.rs, c.mix, 1)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(blob, prefix); err != nil {
		return nil, err
	}
	return measureJSON(ctx, c, s)
}

// measureJSON runs the measured window of the cell's simulation, warmed
// up or restored, and marshals its result, returning the simulator to the
// pool once the bytes are sealed: after Put a concurrent Reset may
// scribble over the scheme the result aliases. Failed runs never reach
// Put: their partial state is discarded with the Sim.
func measureJSON(ctx context.Context, c cellSpec, s *sim.Sim) ([]byte, error) {
	res, err := s.Measure(ctx)
	if err != nil {
		return nil, err
	}
	raw, err := marshalResultJSON(NewCellResult(c.rs.Scheme, res))
	if err == nil {
		runPool.Put(s)
	}
	return raw, err
}
