package service

import (
	"cmp"
	"context"
	"slices"

	"bimodal/internal/sim"
)

// A sweep runs its store misses in warm-prefix groups (DESIGN.md section
// 14). Misses that share a warmup prefix hash differ only in what follows
// warmup, their measured length and ANTT, and a shorter measured run is an
// exact prefix of a longer one (sim.Sim.MeasureEach). So a group is one
// simulation: its leader, the group's first miss in sweep order, warms up
// once and measures once, to the longest member's quota, and every
// member's result is read off that run as it passes the member's quota.
// A miss that shares its prefix with no other miss, or has none (warmup
// disabled), is a group of one, whose run is exactly RunCellSpec's.

// warmPlan lays a sweep's store misses out by group: each group's members
// sit side by side in cells, quotas and raws, in sweep order.
type warmPlan struct {
	groups []warmGroup
	cells  []cellSpec
	quotas []sim.Quota // runGroup's scratch
	raws   [][]byte    // each member's result bytes
	// at maps each miss, by its position in the sweep's miss list, to its
	// slot in cells and its group.
	at []warmSlot
}

type warmSlot struct{ slot, group int }

// warmGroup is one group: the slots lo to lo+n-1 of its plan, lo leading.
type warmGroup struct {
	lo, n int
	// ready is closed once the group's run has ended, when raws and err
	// are final. A group of one has none: nobody waits for it.
	ready chan struct{}
	err   error
}

// planWarm groups a sweep's store misses (cell indices in sweep order) by
// warmup prefix hash, whatever their scheme.
func planWarm(cells []cellSpec, misses []int) (*warmPlan, error) {
	p := &warmPlan{
		groups: make([]warmGroup, 0, len(misses)),
		cells:  make([]cellSpec, len(misses)),
		quotas: make([]sim.Quota, len(misses)),
		raws:   make([][]byte, len(misses)),
		at:     make([]warmSlot, len(misses)),
	}
	byPrefix := map[string]int{}
	for k, i := range misses {
		prefix, ok, err := cells[i].rs.PrefixHash()
		if err != nil {
			return nil, err
		}
		g, seen := byPrefix[prefix]
		if !ok || !seen {
			g = len(p.groups)
			p.groups = append(p.groups, warmGroup{})
			if ok {
				byPrefix[prefix] = g
			}
		}
		p.at[k].group = g
		p.groups[g].n++
	}
	lo := 0
	for g := range p.groups {
		grp := &p.groups[g]
		if grp.n > 1 {
			grp.ready = make(chan struct{})
		}
		grp.lo, lo, grp.n = lo, lo+grp.n, 0
	}
	for k, i := range misses {
		grp := &p.groups[p.at[k].group]
		p.at[k].slot = grp.lo + grp.n
		p.cells[grp.lo+grp.n] = cells[i]
		grp.n++
	}
	return p, nil
}

// runWarm returns the result bytes of the sweep's k-th store miss and
// whether they were read off a run another miss led. The leader runs its
// group; every other member waits for that run. The leader is an earlier
// miss, and engine.Map hands misses out in order, so it is already running
// or done: the wait cannot deadlock.
//
// Every grouped miss that completes counts exactly one snapshot miss (it
// led its group's run) or one hit (it shared that run). Groups of one
// count neither.
func (s *Server) runWarm(ctx context.Context, p *warmPlan, k int) (raw []byte, warm bool, err error) {
	at := p.at[k]
	g := &p.groups[at.group]
	if at.slot == g.lo {
		hi := g.lo + g.n
		err := runGroup(ctx, p.cells[g.lo:hi], p.quotas[g.lo:hi], p.raws[g.lo:hi])
		if g.ready != nil {
			g.err = err
			close(g.ready)
			if err == nil {
				s.mSnapMisses.Inc()
			}
		}
		return p.raws[at.slot], false, err
	}
	select {
	case <-g.ready:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if g.err != nil {
		return nil, false, g.err
	}
	s.mSnapHits.Inc()
	return p.raws[at.slot], true, nil
}

// runGroup runs cells, which share a warm prefix or are one cell, as one
// simulation and sets raws[i] to cell i's result bytes. The first cell
// draws a Sim from the process-wide pool, resolved by sim.ForSpec exactly
// as cmd/bmsim and the figures resolve theirs; it warms up once and
// measures once, through every distinct measured length in ascending
// order, asking for ANTT at a length when any cell of that length does.
// A cell's bytes, the compact CellResult JSON every node produces
// identically for its spec, are marshaled as the run passes its length,
// with ANTT only if the cell asked for it. quotas is scratch as long as
// cells. An ANTT cell's standalone terms run serially (Workers 1): the
// service parallelizes across cells.
//
// The Sim goes back to the pool once every result is sealed: after Put a
// concurrent Reset may scribble over the scheme a result aliases. A failed
// run never reaches Put: its partial state is discarded with the Sim.
func runGroup(ctx context.Context, cells []cellSpec, quotas []sim.Quota, raws [][]byte) error {
	qs := quotas[:0]
	for _, c := range cells {
		o := c.rs.Options
		i, found := slices.BinarySearchFunc(qs, o.AccessesPerCore, func(q sim.Quota, n int64) int {
			return cmp.Compare(q.Accesses, n)
		})
		if found {
			qs[i].ANTT = qs[i].ANTT || o.ANTT
		} else {
			qs = slices.Insert(qs, i, sim.Quota{Accesses: o.AccessesPerCore, ANTT: o.ANTT})
		}
	}
	s, err := sim.ForSpec(runPool, cells[0].rs, cells[0].mix, 1)
	if err != nil {
		return err
	}
	if err := s.Warmup(ctx); err != nil {
		return err
	}
	err = s.MeasureEach(ctx, qs, func(k int, res sim.RunResult) error {
		for i, c := range cells {
			if c.rs.Options.AccessesPerCore != qs[k].Accesses {
				continue
			}
			r := res
			if !c.rs.Options.ANTT {
				r.ANTT = 0
			}
			raw, err := marshalResultJSON(NewCellResult(c.rs.Scheme, r))
			if err != nil {
				return err
			}
			raws[i] = raw
		}
		return nil
	})
	if err != nil {
		return err
	}
	runPool.Put(s)
	return nil
}
