package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"bimodal/internal/core"
	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/energy"
	"bimodal/internal/service"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// cellLayers accumulates what the traced cells of a single-cell workload
// measure, over the cells since the counters were last zeroed.
type cellLayers struct {
	cells, recycled                      int
	getNs, warmupNs, measureNs, encodeNs int64
	quota                                int64
	// Sums of the schemes' measured-window reports.
	accesses, stackedOps, offchipOps         int64
	stackedRowHits, stackedRowOps, refreshes int64
	metaReads, metaRowHits                   int64
	locLookups, locHits, wasted, offRead     int64
	smallFrac                                float64
}

func (l *cellLayers) addReport(r dramcache.Report) {
	l.accesses += r.Accesses
	l.stackedOps += r.Stacked.Reads + r.Stacked.Writes
	l.offchipOps += r.Offchip.Reads + r.Offchip.Writes
	l.stackedRowHits += r.Stacked.RowHits
	l.stackedRowOps += r.Stacked.RowHits + r.Stacked.RowMisses
	l.refreshes += r.Stacked.Refreshes + r.Offchip.Refreshes
	l.metaReads += r.MetaReads
	l.metaRowHits += r.MetaRowHits
	l.locLookups += r.LocatorLookups
	l.locHits += r.LocatorHits
	l.wasted += r.WastedFetchBytes
	l.offRead += r.OffchipReadBytes
	l.smallFrac += r.SmallFraction
}

// tracedCellRunner runs cells on an engine assembled from the constructors
// sim.NewSim uses, with every core's generator and the scheme wrapped, and
// recycles it between cells the way a pooled sim.Sim resets.
type tracedCellRunner struct {
	w     workload
	seed  uint64
	scale int64
	t     *tracer

	gen    sampler
	scheme *tracedScheme
	eng    *cpu.Engine
	cfg    dramcache.Config
	seeds  []uint64
	// record makes the next cell record its request stream and its
	// per-access spans.
	record bool
	lay    cellLayers
}

// zero clears the counters; the engine stays built.
func (r *tracedCellRunner) zero() {
	r.gen = sampler{}
	r.scheme.calls, r.scheme.hit, r.scheme.miss = 0, sampler{}, sampler{}
	r.lay = cellLayers{}
}

func (r *tracedCellRunner) run(ctx context.Context, k int) unit {
	specs, err := r.w.unitSpecs(r.seed, k, r.scale)
	if err != nil {
		return unit{k: k, err: err}
	}
	r.t.unit.Store(int32(k))
	t0 := time.Now()
	cell := r.t.begin("cell", -1)
	raw, err := r.cell(ctx, specs[0], cell)
	r.t.end(cell)
	return unit{k: k, specs: specs, wall: time.Since(t0), raw: raw, err: err}
}

func (*tracedCellRunner) close() error { return nil }

// cell runs one cell as pool get, warmup, measure and encode spans.
func (r *tracedCellRunner) cell(ctx context.Context, rs spec.RunSpec, parent int32) ([]byte, error) {
	t := r.t
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		return nil, err
	}
	q, err := quota(rs)
	if err != nil {
		return nil, err
	}
	so := sim.OptionsForSpec(rs)
	so.Workers = 1
	if so.WarmupPerCore <= 0 {
		return nil, fmt.Errorf("traced cells need a warmup window")
	}

	id := t.begin("sim.pool_get", parent)
	err = r.get(rs, mix, so)
	r.lay.getNs += t.end(id)
	if err != nil {
		return nil, err
	}
	r.scheme.rec, t.detail = nil, r.record
	if r.record {
		r.scheme.rec, r.scheme.recHits, r.record = make([]dramcache.Request, 0, 1<<16), 0, false
	}

	done := t.within("sim.warmup", parent)
	pre, err := r.eng.WarmupContext(ctx, so.WarmupPerCore)
	preT := r.eng.TenantTotals()
	r.lay.warmupNs += done()
	if err != nil {
		return nil, err
	}
	done = t.within("sim.measure", parent)
	per, err := r.eng.MeasureAfterWarmupContext(ctx, so.AccessesPerCore, pre)
	r.lay.measureNs += done()
	t.detail = false
	if err != nil {
		return nil, err
	}

	id = t.begin("sim.encode", parent)
	rep := r.scheme.Report()
	raw, err := json.Marshal(service.NewCellResult(rs.Scheme, sim.RunResult{
		Mix:       mix.Name,
		PerCore:   per,
		PerTenant: cpu.DeltaTenants(r.eng.TenantTotals(), preT),
		Report:    rep,
		Energy:    energy.Compute(rep, energy.Default()),
		Scheme:    r.scheme,
	}))
	r.lay.encodeNs += t.end(id)
	r.lay.cells++
	r.lay.quota += q
	r.lay.addReport(rep)
	return raw, err
}

// get readies the engine for the cell: Engine.Reset plus the scheme's
// Resetter, as sim.Sim.Reset does, or a fresh build the first time.
func (r *tracedCellRunner) get(rs spec.RunSpec, mix workloads.Mix, so sim.Options) error {
	r.cfg = sim.ConfigFor(mix, so)
	if r.eng != nil && r.scheme.Reset(r.cfg) {
		r.seeds = r.seeds[:0]
		for i := 0; i < mix.Cores(); i++ {
			r.seeds = append(r.seeds, workloads.CoreSeed(so.Seed, i))
		}
		if r.eng.Reset(r.seeds) {
			r.lay.recycled++
			return nil
		}
	}
	factory, err := sim.FactoryForSpec(rs, mix.Cores())
	if err != nil {
		return err
	}
	r.scheme = &tracedScheme{inner: factory(r.cfg), t: r.t}
	gens := mix.Generators(so.Seed)
	for i, g := range gens {
		gens[i] = &tracedGen{inner: g, t: r.t, s: &r.gen}
	}
	r.eng = cpu.NewEngine(r.scheme, gens, cpu.DefaultCoreConfig(), nil)
	return nil
}

// replayCore replays the recorded request stream through a fresh core cache
// with the recorded cell's parameters: the functional cache alone, without
// DRAM timing. It returns the host time per access, 0 for schemes without a
// Bi-Modal core, and fails unless the replay hits exactly as the cell did.
func (r *tracedCellRunner) replayCore() (float64, error) {
	bm, ok := r.scheme.inner.(*dramcache.BiModal)
	if !ok || len(r.scheme.rec) == 0 {
		return 0, nil
	}
	p := bm.Core().Params()
	var wl *core.WayLocator
	if bm.Core().Locator() != nil {
		wl = core.NewWayLocator(r.cfg.WayLocatorK, p.BigBlock)
	}
	c := core.NewCache(p, wl)
	t0 := time.Now()
	for _, q := range r.scheme.rec {
		c.Access(q.Addr, q.Write)
	}
	d := time.Since(t0)
	if c.Stats.Hits != r.scheme.recHits {
		return 0, fmt.Errorf("core replay hit %d times, the traced cell %d", c.Stats.Hits, r.scheme.recHits)
	}
	return float64(d) / float64(len(r.scheme.rec)), nil
}

// layers derives the simulator's per-layer metrics. coreNs is the replayed
// core cache's time per access.
func (r *tracedCellRunner) layers(coreNs float64) map[string]float64 {
	c := r.t.clockNs
	s, l := r.scheme, r.lay
	calls := float64(s.calls)
	accessTotal := s.hit.totalNs(c) + s.miss.totalNs(c)
	accessNs := ratio(accessTotal, calls)
	cells := float64(l.cells)
	m := map[string]float64{
		"trace.next_ns":               r.gen.meanNs(c),
		"trace.calls_per_cell":        ratio(float64(r.gen.calls), cells),
		"cpu.dispatch_ns":             ratio(float64(l.warmupNs+l.measureNs)-r.gen.totalNs(c)-accessTotal, calls),
		"cpu.useful_frac":             ratio(float64(l.quota), calls),
		"dramcache.access_ns":         accessNs,
		"dramcache.hit_ns":            s.hit.meanNs(c),
		"dramcache.miss_ns":           s.miss.meanNs(c),
		"dramcache.miss_frac":         ratio(float64(s.miss.calls), calls),
		"dramcache.timing_ns":         accessNs - coreNs,
		"dram.stacked_ops_per_access": ratio(float64(l.stackedOps), float64(l.accesses)),
		"dram.offchip_ops_per_access": ratio(float64(l.offchipOps), float64(l.accesses)),
		"dram.stacked_row_hit_rate":   ratio(float64(l.stackedRowHits), float64(l.stackedRowOps)),
		"dram.meta_row_hit_rate":      ratio(float64(l.metaRowHits), float64(l.metaReads)),
		"dram.refreshes_per_cell":     ratio(float64(l.refreshes), cells),
		"sim.pool_get_ms":             ratio(float64(l.getNs), cells) / 1e6,
		"sim.pool_hit_frac":           ratio(float64(l.recycled), cells),
		"sim.warmup_ms":               ratio(float64(l.warmupNs), cells) / 1e6,
		"sim.measure_ms":              ratio(float64(l.measureNs), cells) / 1e6,
		"sim.encode_ms":               ratio(float64(l.encodeNs), cells) / 1e6,
	}
	if coreNs > 0 {
		m["core.access_ns"] = coreNs
		m["core.locator_hit_rate"] = ratio(float64(l.locHits), float64(l.locLookups))
		m["core.small_block_frac"] = l.smallFrac / cells
		m["core.fetch_useful_frac"] = 1 - ratio(float64(l.wasted), float64(l.offRead))
	}
	return m
}

// sweepLayers accumulates what the traced sweeps see from the client side.
type sweepLayers struct {
	sweeps, cells             int
	submitNs, queueNs, tailNs int64
	origins                   map[string]int
}

// traceSweep submits unit k as a sweep and records its spans: the submit
// call, the wait until the sweep runs, the cells, the tail from the last
// cell to completion, and fetching the result. Store calls made meanwhile
// become children of the sweep span.
func (r *sweepRunner) traceSweep(ctx context.Context, k int, specs []spec.RunSpec) unit {
	t, l := r.t, r.lay
	t.unit.Store(int32(k))
	t0 := time.Now()
	done := t.within("sweep", -1)
	root := t.parent.Load()
	id := t.begin("http.submit", root)
	st, err := r.cl.SubmitSweep(ctx, service.SweepRequest{Specs: specs})
	l.submitNs += t.end(id)
	if err != nil {
		done()
		return unit{k: k, specs: specs, err: err}
	}
	submitted := t.now()
	mark, cellsAt := submitted, submitted
	fin, err := r.cl.FollowSweep(ctx, st.ID, func(e service.Event) {
		now := t.now()
		switch {
		case e.Type == "state" && e.State == service.StateRunning:
			t.add("service.queue", submitted, now, root)
			l.queueNs += now - submitted
			mark, cellsAt = now, now
		case e.Type == "cell":
			l.origins[e.Origin]++
			l.cells++
			mark = now
		case e.Type == "state" && e.State == service.StateCompleted:
			t.add("service.cells", cellsAt, mark, root)
			t.add("service.tail", mark, now, root)
			l.tailNs += now - mark
			mark = now
		}
	})
	t.add("http.result", mark, t.now(), root)
	done()
	l.sweeps++
	u := unit{k: k, specs: specs, wall: time.Since(t0), raw: fin.Result, err: err}
	if err == nil && fin.State != service.StateCompleted {
		u.err = fmt.Errorf("sweep %s ended %s: %s", fin.ID, fin.State, fin.Error)
	}
	return u
}

// scrape reads the server's /metrics exposition into name → value.
func scrape(ctx context.Context, cl *service.Client) (map[string]float64, error) {
	text, err := cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sweepMetrics derives the serving layers' per-layer metrics from the
// client-side spans, the timing store and the /metrics deltas.
func sweepMetrics(l sweepLayers, st *timedStore, before, after map[string]float64) map[string]float64 {
	delta := func(name string) float64 { return after[name] - before[name] }
	sweeps, cells := float64(l.sweeps), float64(l.cells)
	hits, misses := delta("bimodal_snapshot_hits_total"), delta("bimodal_snapshot_misses_total")
	st.mu.Lock()
	defer st.mu.Unlock()
	return map[string]float64{
		"http.submit_ms":            ratio(float64(l.submitNs), sweeps) / 1e6,
		"service.queue_ms":          ratio(float64(l.queueNs), sweeps) / 1e6,
		"service.cell_ms":           ratio(delta("bimodal_cell_seconds_sum"), delta("bimodal_cell_seconds_count")) * 1e3,
		"service.tail_ms":           ratio(float64(l.tailNs), sweeps) / 1e6,
		"service.origin_run_frac":   ratio(float64(l.origins["run"]), cells),
		"service.origin_warm_frac":  ratio(float64(l.origins["warm"]), cells),
		"service.origin_store_frac": ratio(float64(l.origins["store"]), cells),
		"service.snapshot_hit_frac": ratio(hits, hits+misses),
		"store.get_us":              ratio(float64(st.getNs), float64(st.gets)) / 1e3,
		"store.put_us":              ratio(float64(st.putNs), float64(st.puts)) / 1e3,
		"store.hit_frac":            ratio(float64(st.getHits), float64(st.gets)),
		"store.put_kb":              ratio(float64(st.putBytes), float64(st.puts)) / 1e3,
	}
}
