package sim

import (
	"context"
	"fmt"

	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/energy"
	"bimodal/internal/engine"
	"bimodal/internal/snapshot"
	"bimodal/internal/trace"
	"bimodal/internal/workloads"
)

// Sim is a simulation split at the warmup/measure phase boundary, the
// seam the warm-state checkpointing subsystem operates on (bmsim
// -checkpoint seals it, -restore resumes from it). It is the only way a
// run executes — Warmup then Measure, with a Snapshot or a Restore at the
// seam in between — so straight-through, checkpointed, pooled and
// standalone runs all replay the same engine call sequence (DESIGN.md
// section 14).
type Sim struct {
	mix workloads.Mix
	o   Options
	// factory built the scheme; standalone builds its single-core runs
	// with it. A pooled Sim keeps it: the pool key binds one factory.
	factory Factory //bmlint:resetconst
	eng     *cpu.Engine
	pre     []cpu.CoreResult
	// preT is the per-tenant warmup baseline (empty for single-tenant
	// mixes), captured alongside pre and subtracted the same way.
	preT   []cpu.TenantResult
	warmed bool
	// antt makes Measure run the standalone terms and report ANTT. It is
	// per draw, not per geometry: ForSpec sets it from the spec on every
	// take or build and the pool key leaves it out, so an ANTT cell and its
	// non-ANTT twin share pooled simulators.
	antt bool

	// seeds is a reusable per-core seed buffer for Reset.
	seeds []uint64
	// key/pooled track RunPool membership; RunPool.Get manages them, and
	// Reset deliberately leaves them so a pooled Sim stays pooled.
	key    poolKey //bmlint:resetconst
	pooled bool    //bmlint:resetconst
}

// NewSim assembles a simulation without running it: normalized options,
// the derived config, a fresh scheme from factory and one generator per
// core seeded from o.Seed.
func NewSim(mix workloads.Mix, factory Factory, o Options) *Sim {
	o = o.normalize()
	return newSim(mix, factory, o, mix.Generators(o.Seed))
}

// newSim builds a Sim over gens, every core of the mix or one slot alone
// (standalone). The scheme is configured for the whole mix either way;
// the prefetcher tracks one stream per generator.
func newSim(mix workloads.Mix, factory Factory, o Options, gens []trace.Generator) *Sim {
	var pf *cpu.Prefetcher
	if o.PrefetchN > 0 {
		pf = cpu.NewPrefetcher(o.PrefetchN, len(gens))
	}
	return &Sim{
		mix:     mix,
		o:       o,
		factory: factory,
		eng:     cpu.NewEngine(factory(ConfigFor(mix, o)), gens, cpu.DefaultCoreConfig(), pf),
	}
}

// sameRunShape reports whether two normalized option sets describe the
// same simulator structure. Seed is excluded (Reset re-seeds everything in
// place) and so is Workers (it only fans out the standalone runs and never
// shapes a Sim).
func sameRunShape(a, b Options) bool {
	a.Seed, b.Seed = 0, 0
	a.Workers, b.Workers = 0, 0
	return a == b
}

// Reset re-initializes the fully-constructed simulator in place for a new
// run — scheme, cores, generators and statistics — reusing every backing
// array, and reports whether it could. Reuse requires the same mix and the
// same run shape (options modulo Seed and Workers), and a scheme that
// implements dramcache.Resetter and accepts the derived config. When Reset
// declines it may leave the Sim unusable (possibly half-reset), and the
// caller must build fresh with NewSim. After a successful Reset the Sim
// behaves byte-identically to NewSim(mix, factory, o) with the factory it
// was built with: the scheme is back to its constructed state with the new
// seed, and each core's generator is re-seeded with
// workloads.CoreSeed(o.Seed, i) — exactly the seeds mix.Generators(o.Seed)
// would use.
//
//bmlint:hotpath
func (s *Sim) Reset(mix workloads.Mix, o Options) bool {
	o = o.normalize()
	if mix.Name != s.mix.Name || mix.Cores() != s.mix.Cores() || !sameRunShape(o, s.o) {
		return false
	}
	rs, ok := s.eng.Scheme().(dramcache.Resetter)
	if !ok || !rs.Reset(ConfigFor(mix, o)) {
		return false
	}
	s.seeds = s.seeds[:0]
	for i := 0; i < mix.Cores(); i++ {
		s.seeds = append(s.seeds, workloads.CoreSeed(o.Seed, i))
	}
	if !s.eng.Reset(s.seeds) {
		return false
	}
	s.mix = mix
	s.o = o
	s.pre = s.pre[:0]
	s.preT = s.preT[:0]
	s.warmed = false
	s.antt = false
	return true
}

// Warmup runs the warmup window. A no-op when warmup is disabled. Calling
// it twice (or after Restore) is a misuse.
func (s *Sim) Warmup(ctx context.Context) error {
	if s.warmed {
		return fmt.Errorf("sim: Warmup called on an already-warm simulation")
	}
	if s.o.WarmupPerCore <= 0 {
		return nil
	}
	pre, err := s.eng.AppendWarmup(ctx, s.pre[:0], s.o.WarmupPerCore)
	if err != nil {
		return err
	}
	s.pre = pre
	s.preT = s.eng.AppendTenantTotals(s.preT[:0])
	s.warmed = true
	return nil
}

// Record has core i keep the accesses it draws in r, for other Sims whose
// core draws the same stream (workloads.Mix.Stream) to replay. Call it
// before the Sim's first phase, on a Sim fresh from NewSim, ForSpec or
// Reset; the run completes r when Measure or MeasureEach ends it. It
// changes no result or blob byte (cpu.Engine.Record), and reports false,
// doing nothing, when the core's generator cannot be read ahead.
func (s *Sim) Record(i int, r *cpu.Recording) bool { return s.eng.Record(i, r) }

// Replay has core i draw the complete recording r first and then go on
// exactly where r's recorder's generator stood after it, so the run's
// bytes are those of fresh generation (cpu.Engine.Replay). Its rules are
// Record's, and r must stay unreleased until the run has ended.
func (s *Sim) Replay(i int, r *cpu.Recording) bool { return s.eng.Replay(i, r) }

// Draws reports how many accesses the Sim's cores drew since it was built
// or Reset, and how many of those came from replayed recordings
// (cpu.Engine.Draws); ANTT's standalone runs draw their own and are not
// counted.
func (s *Sim) Draws() (drawn, replayed int64) { return s.eng.Draws() }

// Snapshot seals the complete simulator state into a blob bound to
// prefixHash (see spec.PrefixHash). Valid at the warmup/measure boundary:
// after Warmup, before Measure.
func (s *Sim) Snapshot(prefixHash string) []byte {
	w := snapshot.NewWriter()
	s.eng.SnapshotState(w)
	return snapshot.Seal(prefixHash, w.Bytes())
}

// Restore overwrites the simulator state from a blob produced by Snapshot
// on a congruent Sim (same mix, factory and warmup-prefix options — the
// prefix hash encodes exactly that congruence). A non-empty wantPrefix is
// checked against the hash sealed into the blob. On error the Sim must be
// discarded: state may be partially overwritten.
func (s *Sim) Restore(blob []byte, wantPrefix string) error {
	prefixHash, payload, err := snapshot.Open(blob)
	if err != nil {
		return err
	}
	if wantPrefix != "" && string(prefixHash) != wantPrefix {
		return fmt.Errorf("sim: snapshot prefix %s does not match expected %s", prefixHash, wantPrefix)
	}
	r := snapshot.NewReader(payload)
	s.eng.RestoreState(r)
	if err := r.Err(); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("sim: restore: %d trailing payload bytes", n)
	}
	s.pre = s.eng.AppendCumulativeResults(s.pre[:0])
	s.preT = s.eng.AppendTenantTotals(s.preT[:0])
	s.warmed = true
	return nil
}

// Measure runs the measured window and assembles the run result: the
// one-quota call of MeasureEach, at the Sim's AccessesPerCore. With no
// prior warmup it replays the plain single-phase path; after Warmup or
// Restore it reports the measured window relative to the warmup baseline.
// For a Sim ForSpec drew for an ANTT spec it also runs the standalone
// terms and reports RunResult.ANTT. The result is captured at the end of
// the run, so its Scheme stays valid until the Sim is Reset or Put.
func (s *Sim) Measure(ctx context.Context) (RunResult, error) {
	var res RunResult
	q := [1]Quota{{Accesses: s.o.AccessesPerCore, ANTT: s.antt}}
	err := s.MeasureEach(ctx, q[:], func(_ int, r RunResult) error {
		res = r
		return nil
	})
	if err != nil {
		return RunResult{}, err
	}
	return res, nil
}

// Quota is a point at which MeasureEach reports: a measured length per
// core, and whether the result there carries ANTT.
type Quota struct {
	Accesses int64
	ANTT     bool
}

// MeasureEach runs the measured window once, to the last of quotas, whose
// Accesses must ascend strictly from a positive first, and calls each(k,
// res) as the run passes quotas[k].Accesses: when the last core completes
// that many measured accesses. res is then exactly what Measure returns on
// a Sim that differs from this one only in AccessesPerCore (and in ANTT,
// as quotas[k] asks), provided its scheme builds identically, which holds
// for all Sims of specs sharing a warm prefix (spec.PrefixHash): the
// engine counts toward the longer quotas without changing what it
// simulates (cpu.Engine.RunEachContext), so a shorter run is a prefix of
// a longer one. res.Scheme is the live scheme, valid only inside each,
// since the run goes on after each returns; res's slices are each
// capture's own. An error from each ends the run, and MeasureEach returns
// it.
//
// The standalone terms of the quotas that ask for ANTT run first, for all
// of them at once. MeasureEach ends the run: the engine hands its trace
// read-ahead back, so an idle pooled Sim holds none, and the Sim runs
// nothing more until Reset or Restore.
func (s *Sim) MeasureEach(ctx context.Context, quotas []Quota, each func(k int, res RunResult) error) error {
	defer s.eng.ReleaseReadAhead()
	var buf [4]int64 // the engine's quotas; a sweep's groups rarely need more
	qs := buf[:0]
	var antt []Quota
	for _, q := range quotas {
		qs = append(qs, q.Accesses)
		if q.ANTT {
			antt = append(antt, Quota{Accesses: q.Accesses})
		}
	}
	var terms []cpu.CoreResult
	if len(antt) > 0 {
		var err error
		if terms, err = s.standalone(ctx, antt); err != nil {
			return err
		}
	}
	scheme := s.eng.Scheme()
	if s.warmed {
		scheme.ResetStats()
	}
	n := s.mix.Cores()
	return s.eng.RunEachContext(ctx, qs, func(k int, per []cpu.CoreResult, tens []cpu.TenantResult) error {
		rep := scheme.Report()
		res := RunResult{
			Mix:       s.mix.Name,
			PerCore:   cpu.DeltaResults(per, s.pre),
			PerTenant: cpu.DeltaTenants(tens, s.preT),
			Report:    rep,
			Energy:    energy.Compute(rep, energy.Default()),
			Scheme:    scheme,
		}
		if quotas[k].ANTT {
			res.ANTT = cpu.ANTT(res.PerCore, terms[:n])
			terms = terms[n:]
		}
		return each(k, res)
	})
}

// standalone runs each benchmark of the mix alone on the same machine and
// returns the C^SP terms of ANTT at every quota: terms[j*n+i] is core slot
// i's result at quotas[j], labelled with its slot, for an n-core mix.
// Slot i's run is one fresh single-core Sim through Warmup and MeasureEach
// over quotas: the mix's config and this Sim's factory, slot i's generator
// alone (workloads.CoreSeed(seed, i) at workloads.CoreBase(i)) and a
// one-core prefetcher. The runs are independent, so they fan out over
// Options.Workers goroutines, with the same result at any worker count.
// standalone reads only the Sim's configuration, never its engine.
func (s *Sim) standalone(ctx context.Context, quotas []Quota) ([]cpu.CoreResult, error) {
	n := s.mix.Cores()
	per, err := engine.Map(ctx, s.o.Workers, n, func(ctx context.Context, i int) ([]cpu.CoreResult, error) {
		solo := newSim(s.mix, s.factory, s.o, []trace.Generator{s.mix.Generator(s.o.Seed, i)})
		if err := solo.Warmup(ctx); err != nil {
			return nil, err
		}
		out := make([]cpu.CoreResult, len(quotas))
		err := solo.MeasureEach(ctx, quotas, func(j int, res RunResult) error {
			out[j] = res.PerCore[0]
			out[j].Core = i
			return nil
		})
		return out, err
	})
	if err != nil {
		return nil, err
	}
	terms := make([]cpu.CoreResult, len(quotas)*n)
	for i, p := range per {
		for j, r := range p {
			terms[j*n+i] = r
		}
	}
	return terms, nil
}
