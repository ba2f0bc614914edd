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
// seam the warm-state checkpointing subsystem operates on: warm up once,
// snapshot, and fork restored engines into many measured runs. It is the
// only way a run executes — Warmup then Measure, with a Snapshot or a
// Restore at the seam in between — so straight-through, checkpointed,
// pooled and standalone runs all replay the same engine call sequence
// (DESIGN.md section 14).
type Sim struct {
	mix workloads.Mix
	o   Options
	// factory built the scheme; standalone builds its single-core runs
	// with it. A pooled Sim keeps it: the pool key binds one factory.
	factory Factory //bmlint:resetconst
	eng     *cpu.Engine
	pre     []cpu.CoreResult
	// preT is the per-tenant warmup baseline (nil for single-tenant mixes),
	// captured alongside pre and subtracted the same way.
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
	// payloadMax is the largest payload Snapshot has sealed, the capacity
	// hint for the next one. Reset leaves it: a pooled Sim keeps its
	// geometry, so only the variable-length parts (write queues, in-flight
	// misses, trace tails) move the size of its snapshots.
	payloadMax int //bmlint:resetconst
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
	s.pre = nil
	s.preT = nil
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
	pre, err := s.eng.WarmupContext(ctx, s.o.WarmupPerCore)
	if err != nil {
		return err
	}
	s.pre = pre
	s.preT = s.eng.TenantTotals()
	s.warmed = true
	return nil
}

// Snapshot seals the complete simulator state into a blob bound to
// prefixHash (see spec.PrefixHash). Valid at the warmup/measure boundary:
// after Warmup, before Measure. The state is encoded in place behind the
// envelope header, so sealing copies nothing, and a Sim that sealed before
// allocates the blob once, sized from its largest earlier payload plus a
// sixteenth for the variable-length parts.
func (s *Sim) Snapshot(prefixHash string) []byte {
	w := snapshot.NewSealer(prefixHash, s.payloadMax+s.payloadMax/16)
	s.eng.SnapshotState(w)
	s.payloadMax = max(s.payloadMax, w.Len())
	return w.Seal()
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
	if wantPrefix != "" && prefixHash != wantPrefix {
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
	s.pre = s.eng.CumulativeResults()
	s.preT = s.eng.TenantTotals()
	s.warmed = true
	return nil
}

// Measure runs the measured window and assembles the run result. With no
// prior warmup it replays the plain single-phase path; after Warmup or
// Restore it reports the measured window relative to the warmup baseline.
// For a Sim ForSpec drew for an ANTT spec it then runs the standalone
// terms and reports RunResult.ANTT. It ends the run: the engine
// hands its trace read-ahead back, so an idle pooled Sim holds none, and
// the Sim runs nothing more until Reset or Restore.
func (s *Sim) Measure(ctx context.Context) (RunResult, error) {
	var per []cpu.CoreResult
	var err error
	if s.warmed {
		per, err = s.eng.MeasureAfterWarmupContext(ctx, s.o.AccessesPerCore, s.pre)
	} else {
		per, err = s.eng.RunContext(ctx, s.o.AccessesPerCore)
	}
	s.eng.ReleaseReadAhead()
	if err != nil {
		return RunResult{}, err
	}
	scheme := s.eng.Scheme()
	rep := scheme.Report()
	res := RunResult{
		Mix:       s.mix.Name,
		PerCore:   per,
		PerTenant: cpu.DeltaTenants(s.eng.TenantTotals(), s.preT),
		Report:    rep,
		Energy:    energy.Compute(rep, energy.Default()),
		Scheme:    scheme,
	}
	if s.antt {
		terms, err := s.standalone(ctx)
		if err != nil {
			return RunResult{}, err
		}
		res.ANTT = cpu.ANTT(per, terms)
	}
	return res, nil
}

// standalone runs each benchmark of the mix alone on the same machine and
// returns the per-core results in mix order, labelled with their slots —
// the C^SP terms of ANTT, which Measure pairs with its own PerCore.
// Slot i's run is a fresh single-core Sim through Warmup and Measure: the
// mix's config and this Sim's factory, slot i's generator alone
// (workloads.CoreSeed(seed, i) at workloads.CoreBase(i)) and a one-core
// prefetcher. The runs are independent, so they fan out over
// Options.Workers goroutines, with the same result at any worker count.
// standalone reads only the Sim's configuration, never its engine.
func (s *Sim) standalone(ctx context.Context) ([]cpu.CoreResult, error) {
	return engine.Map(ctx, s.o.Workers, s.mix.Cores(), func(ctx context.Context, i int) (cpu.CoreResult, error) {
		solo := newSim(s.mix, s.factory, s.o, []trace.Generator{s.mix.Generator(s.o.Seed, i)})
		if err := solo.Warmup(ctx); err != nil {
			return cpu.CoreResult{}, err
		}
		res, err := solo.Measure(ctx)
		if err != nil {
			return cpu.CoreResult{}, err
		}
		r := res.PerCore[0]
		r.Core = i
		return r, nil
	})
}
