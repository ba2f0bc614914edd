package service

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"bimodal/internal/cpu"
	"bimodal/internal/sim"
	"bimodal/internal/telemetry"
	"bimodal/internal/workloads"
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
//
// Groups also share core streams. Core i's access stream depends only on
// its benchmark (or tenant composition), its slot and the seed
// (workloads.Mix.Stream), never on the scheme, so the groups of a sweep
// that scores several schemes on one mix draw the same streams. The first
// group to draw a stream that a later group draws too records what its
// core draws (sim.Sim.Record); a later group replays the recording
// (sim.Sim.Replay) once that run has ended well, and generates its own
// otherwise: it never waits for a recording. Replay changes no byte. The
// recordings go back to the read-ahead free list when the sweep ends.

// warmPlan lays a sweep's store misses out by group: each group's members
// sit side by side in cells, misses and quotas, in sweep order.
type warmPlan struct {
	groups []warmGroup
	cells  []cellSpec
	misses []int       // each member's position in the sweep's miss list
	quotas []sim.Quota // runGroup's scratch
	// groupOf maps each miss, by its position in the sweep's miss list, to
	// its group.
	groupOf []int
	// streams holds every group's cores, group by group, when the plan has
	// more than one group, and recs one recording per stream that more than
	// one group draws.
	streams []coreStream
	recs    []cpu.Recording
	// byPrefix and byStream are planWarm's scratch maps.
	byPrefix map[string]int
	byStream map[workloads.Stream]int
}

// plans recycles sweep plans with their tables and maps, so that a steady
// stream of sweeps plans without allocating, its groups' ready channels
// aside.
var plans = sync.Pool{New: func() any { return new(warmPlan) }}

// sized returns s at length n with every element zero, reusing its array
// when that is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// coreStream is one core of a group's run. rec indexes the plan's recording
// of the core's stream when another group draws that stream too, and is -1
// otherwise; from is then the group that draws it first, which records it.
// act is what the group's run does with the stream, set by its leader.
type coreStream struct {
	rec, from int
	act       streamAct
}

// streamAct is what a core does with its shared stream: draw its own
// generator only, record the stream, or replay it.
type streamAct uint8

const (
	ownStream streamAct = iota
	recordStream
	replayStream
)

// warmGroup is one group: the slots lo to lo+n-1 of its plan, lo leading,
// and the entries so to so+cores-1 of its plan's streams, one per core.
type warmGroup struct {
	lo, n     int
	so, cores int
	// records marks a group that records a stream another group replays.
	records bool
	// ready is closed once the group's run has ended, when err, the
	// results it handed out and the recordings it made are final. A group
	// of one that records no stream has none: nobody looks at it.
	ready chan struct{}
	err   error
}

// planWarm groups a sweep's store misses (cell indices in sweep order) by
// warmup prefix hash, whatever their scheme.
// The plan comes from the pool; release returns it.
func planWarm(cells []cellSpec, misses []int) (*warmPlan, error) {
	p := plans.Get().(*warmPlan)
	n := len(misses)
	p.groups = p.groups[:0]
	p.cells, p.misses, p.quotas, p.groupOf = sized(p.cells, n), sized(p.misses, n), sized(p.quotas, n), sized(p.groupOf, n)
	p.streams, p.recs = p.streams[:0], p.recs[:0]
	if p.byPrefix == nil {
		p.byPrefix = map[string]int{}
	}
	for k, i := range misses {
		prefix, ok, err := cells[i].rs.PrefixHash()
		if err != nil {
			p.release()
			return nil, err
		}
		g, seen := p.byPrefix[prefix]
		if !ok || !seen {
			g = len(p.groups)
			p.groups = append(p.groups, warmGroup{})
			if ok {
				p.byPrefix[prefix] = g
			}
		}
		p.groupOf[k] = g
		p.groups[g].n++
	}
	lo := 0
	for g := range p.groups {
		grp := &p.groups[g]
		grp.lo, lo, grp.n = lo, lo+grp.n, 0
	}
	for k, i := range misses {
		grp := &p.groups[p.groupOf[k]]
		p.cells[grp.lo+grp.n], p.misses[grp.lo+grp.n] = cells[i], k
		grp.n++
	}
	p.planStreams()
	for g := range p.groups {
		if grp := &p.groups[g]; grp.n > 1 || grp.records {
			grp.ready = make(chan struct{})
		}
	}
	return p, nil
}

// planStreams keys every group's cores by stream identity and gives each
// stream that more than one group draws a recording, recorded by the first
// group that draws it. A plan of one group shares nothing and lays out no
// streams.
func (p *warmPlan) planStreams() {
	if len(p.groups) < 2 {
		return
	}
	n := 0
	for g := range p.groups {
		grp := &p.groups[g]
		grp.so, grp.cores = n, p.cells[grp.lo].mix.Cores()
		n += grp.cores
	}
	p.streams = sized(p.streams, n)
	if p.byStream == nil {
		p.byStream = make(map[workloads.Stream]int, n)
	}
	first := p.byStream // each stream's first entry
	recs := 0
	for g := range p.groups {
		grp := &p.groups[g]
		lead := p.cells[grp.lo]
		for i := 0; i < grp.cores; i++ {
			k := grp.so + i
			p.streams[k] = coreStream{rec: -1, from: g}
			// A zero seed runs as 1 (sim.Options).
			key := lead.mix.Stream(max(lead.rs.Seed, 1), i)
			j, seen := first[key]
			if !seen {
				first[key] = k
				continue
			}
			f := &p.streams[j]
			if f.rec < 0 {
				f.rec, recs = recs, recs+1
				p.groups[f.from].records = true
			}
			p.streams[k].rec, p.streams[k].from = f.rec, f.from
		}
	}
	p.recs = sized(p.recs, recs)
}

// share decides what group g's run does with each core's stream and
// returns the group's streams: it records the streams it draws first, and
// replays the others' recordings whose runs have ended well. A recording
// still being drawn is not waited for: the core generates its own stream.
func (p *warmPlan) share(g int) []coreStream {
	if len(p.streams) == 0 {
		return nil
	}
	grp := &p.groups[g]
	sts := p.streams[grp.so : grp.so+grp.cores]
	for i := range sts {
		st := &sts[i]
		switch {
		case st.rec < 0:
			st.act = ownStream
		case st.from == g:
			st.act = recordStream
		case p.recorded(st):
			st.act = replayStream
		default:
			st.act = ownStream
		}
	}
	return sts
}

// recorded reports whether st's recording is complete: its recorder's run
// has ended well and completed it.
func (p *warmPlan) recorded(st *coreStream) bool {
	from := &p.groups[st.from]
	select {
	case <-from.ready:
		return from.err == nil && p.recs[st.rec].Done()
	default:
		return false
	}
}

// release returns the plan's recordings to the free list and the plan,
// emptied of what it refers to, to its pool. Every group's run must have
// ended, and nothing may use the plan after.
func (p *warmPlan) release() {
	for i := range p.recs {
		p.recs[i].Release()
	}
	clear(p.groups)
	clear(p.cells)
	clear(p.byPrefix)
	clear(p.byStream)
	plans.Put(p)
}

// shareStats counts what a sweep's group runs share: grouped misses that
// led their group's run (mSnapMisses) and that were read off it
// (mSnapHits), and the core-stream accesses the runs drew from their own
// generators (mStreamGenerated) and from another group's recording
// (mStreamReplayed).
type shareStats struct {
	mSnapHits, mSnapMisses            *telemetry.Counter
	mStreamGenerated, mStreamReplayed *telemetry.Counter
}

// discardShares counts the shares of the runs no server reports, those of
// RunSpecsEach.
var discardShares = shareStats{new(telemetry.Counter), new(telemetry.Counter), new(telemetry.Counter), new(telemetry.Counter)}

// run resolves the sweep's k-th store miss and returns its origin: "run"
// when it led its group's run, or "warm" when its result was read off a
// run another miss led. The leader runs its group, which hands every
// member's result to each; every other member waits for that run. The
// leader is an earlier miss, and engine.Map hands misses out in order, so
// it is already running or done: the wait cannot deadlock.
//
// Every grouped miss that completes counts exactly one snapshot miss (it
// led its group's run) or one hit (it shared that run) into st. Groups of
// one count neither. Each group run that completes adds its stream draws
// once.
func (p *warmPlan) run(ctx context.Context, k int, st *shareStats, each func(k int, res sim.RunResult) error) (origin string, err error) {
	g := &p.groups[p.groupOf[k]]
	if p.misses[g.lo] == k {
		hi := g.lo + g.n
		drawn, replayed, err := runGroup(ctx, p.cells[g.lo:hi], p.misses[g.lo:hi], p.quotas[g.lo:hi], p.share(p.groupOf[k]), p.recs, each)
		if err == nil {
			st.mStreamGenerated.Add(drawn - replayed)
			st.mStreamReplayed.Add(replayed)
		}
		if g.ready != nil {
			g.err = err
			close(g.ready)
			if err == nil && g.n > 1 {
				st.mSnapMisses.Inc()
			}
		}
		return "run", err
	}
	select {
	case <-g.ready:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	if g.err != nil {
		return "", g.err
	}
	st.mSnapHits.Inc()
	return "warm", nil
}

// runGroup runs cells, which share a warm prefix or are one cell, as one
// simulation and calls each(ks[i], res) as the run passes cell i's
// measured length. The first cell draws a Sim from the process-wide pool
// through sim.ForSpec; it warms up once and measures once, through every
// distinct length in ascending order, asking for ANTT at a length when
// any cell of that length does. res is what a fresh Sim for the cell's
// spec returns from Warmup and Measure, with ANTT only if the cell asked
// for it; res.Scheme is live only inside the call (sim.Sim.MeasureEach),
// and cells of one length share res's slices. An error from each ends the
// run. quotas is scratch as long as cells. An ANTT cell's standalone
// terms run serially (Workers 1): callers parallelize across groups.
// streams, when not nil, holds one entry per core of the mix saying
// whether the core records its stream into recs or replays it from there,
// and runGroup reports how many accesses the cores drew and how many of
// those were replayed.
//
// The Sim goes back to the pool once every each call has returned: after
// Put a concurrent Reset may scribble over the scheme a result aliases. A
// failed run never reaches Put: its partial state is discarded with the
// Sim.
func runGroup(ctx context.Context, cells []cellSpec, ks []int, quotas []sim.Quota, streams []coreStream, recs []cpu.Recording, each func(k int, res sim.RunResult) error) (drawn, replayed int64, err error) {
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
		return 0, 0, err
	}
	for i, st := range streams {
		switch st.act {
		case recordStream:
			s.Record(i, &recs[st.rec])
		case replayStream:
			s.Replay(i, &recs[st.rec])
		}
	}
	if err := s.Warmup(ctx); err != nil {
		return 0, 0, err
	}
	err = s.MeasureEach(ctx, qs, func(q int, res sim.RunResult) error {
		for i, c := range cells {
			if c.rs.Options.AccessesPerCore != qs[q].Accesses {
				continue
			}
			r := res
			if !c.rs.Options.ANTT {
				r.ANTT = 0
			}
			if err := each(ks[i], r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	drawn, replayed = s.Draws()
	runPool.Put(s)
	return drawn, replayed, nil
}
