package sim

import (
	"context"
	"fmt"

	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/energy"
	"bimodal/internal/snapshot"
	"bimodal/internal/workloads"
)

// Sim is a simulation split at the warmup/measure phase boundary, the
// seam the warm-state checkpointing subsystem operates on: warm up once,
// snapshot, and fork restored engines into many measured runs. RunContext
// is expressed through it, so the straight-through and checkpointed paths
// execute the exact same engine call sequence and produce byte-identical
// results (DESIGN.md section 14).
type Sim struct {
	mix workloads.Mix
	o   Options
	eng *cpu.Engine
	pre []cpu.CoreResult
	// preT is the per-tenant warmup baseline (nil for single-tenant mixes),
	// captured alongside pre and subtracted the same way.
	preT   []cpu.TenantResult
	warmed bool

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

// NewSim assembles a simulation without running it. The construction path
// is identical to RunContext's: normalized options, derived config, a
// fresh scheme from factory, generators seeded from o.Seed.
func NewSim(mix workloads.Mix, factory Factory, o Options) *Sim {
	o = o.normalize()
	cfg := ConfigFor(mix, o)
	scheme := factory(cfg)
	var pf *cpu.Prefetcher
	if o.PrefetchN > 0 {
		pf = cpu.NewPrefetcher(o.PrefetchN, mix.Cores())
	}
	return &Sim{
		mix: mix,
		o:   o,
		eng: cpu.NewEngine(scheme, mix.Generators(o.Seed), o.CoreCfg, pf),
	}
}

// sameRunShape reports whether two normalized option sets describe the
// same simulator structure. Seed is excluded (Reset re-seeds everything in
// place) and so is Workers (it only fans out independent runs and never
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
// implements dramcache.Resetter and accepts the derived config; otherwise
// Reset declines, leaving the Sim unusable (possibly half-reset), and the
// caller must build fresh with NewSim(mix, factory, o). After a successful
// Reset the Sim behaves byte-identically to NewSim(mix, factory, o): the
// scheme is back to its constructed state with the new seed, and each
// core's generator is re-seeded with workloads.CoreSeed(o.Seed, i) —
// exactly the seeds mix.Generators(o.Seed) would use.
//
// The factory parameter mirrors NewSim for call-site symmetry; Reset never
// invokes it (a declined reuse is signalled, not repaired).
//
//bmlint:hotpath
func (s *Sim) Reset(mix workloads.Mix, factory Factory, o Options) bool {
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
// Restore it reports the measured window relative to the warmup baseline,
// exactly as Engine.RunMeasuredContext does. It ends the run: the engine
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
	return RunResult{
		Mix:       s.mix.Name,
		PerCore:   per,
		PerTenant: cpu.DeltaTenants(s.eng.TenantTotals(), s.preT),
		Report:    rep,
		Energy:    energy.Compute(rep, energy.Default()),
		Scheme:    scheme,
	}, nil
}
