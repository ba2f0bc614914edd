package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"bimodal/internal/service"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit, better string }

// endToEndMetrics are what a user of the simulator or the service sees.
// Host-time metrics come from the untraced run; simulated ones repeat
// exactly for a seed.
var endToEndMetrics = []metricDef{
	{"cells_per_s", "cells/s", "higher"},
	{"accesses_per_s", "accesses/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"allocs_per_cell", "allocs", "lower"},
	{"hit_rate", "ratio", "higher"},
	{"avg_read_latency_cycles", "cycles", "lower"},
	{"offchip_mb_per_cell", "MB", "lower"},
	{"ipc", "inst/cycle", "higher"},
}

// perLayerMetrics come from the traced run. A layer a workload never calls
// reads 0.
var perLayerMetrics = []metricDef{
	{"trace.next_ns", "ns", "lower"},
	{"trace.calls_per_cell", "count", "lower"},
	{"cpu.dispatch_ns", "ns", "lower"},
	{"cpu.useful_frac", "ratio", "higher"},
	{"dramcache.access_ns", "ns", "lower"},
	{"dramcache.hit_ns", "ns", "lower"},
	{"dramcache.miss_ns", "ns", "lower"},
	{"dramcache.miss_frac", "ratio", "lower"},
	{"dramcache.timing_ns", "ns", "lower"},
	{"core.access_ns", "ns", "lower"},
	{"core.locator_hit_rate", "ratio", "higher"},
	{"core.small_block_frac", "ratio", "higher"},
	{"core.fetch_useful_frac", "ratio", "higher"},
	{"dram.stacked_ops_per_access", "count", "lower"},
	{"dram.offchip_ops_per_access", "count", "lower"},
	{"dram.stacked_row_hit_rate", "ratio", "higher"},
	{"dram.meta_row_hit_rate", "ratio", "higher"},
	{"dram.refreshes_per_cell", "count", "lower"},
	{"sim.pool_get_ms", "ms", "lower"},
	{"sim.pool_hit_frac", "ratio", "higher"},
	{"sim.warmup_ms", "ms", "lower"},
	{"sim.measure_ms", "ms", "lower"},
	{"sim.encode_ms", "ms", "lower"},
	{"http.submit_ms", "ms", "lower"},
	{"service.queue_ms", "ms", "lower"},
	{"service.cell_ms", "ms", "lower"},
	{"service.tail_ms", "ms", "lower"},
	{"service.origin_run_frac", "ratio", "lower"},
	{"service.origin_warm_frac", "ratio", "higher"},
	{"service.origin_store_frac", "ratio", "higher"},
	{"service.snapshot_hit_frac", "ratio", "higher"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.hit_frac", "ratio", "higher"},
	{"store.put_kb", "KB", "lower"},
	{"tracing.overhead_frac", "ratio", "lower"},
}

const (
	// minUnits makes latency_ms_p90 rest on at least minTail samples. The
	// simulated metrics average over exactly these first units, so they
	// repeat exactly for a seed whatever the run's length.
	minUnits = 100
	// digestUnits is how many units the run digest covers.
	digestUnits = 16
	// setupReps is how many times set-up is timed; setup_s is the median.
	setupReps = 15
)

// tracedUnits is how many units the traced run times after its priming unit.
func tracedUnits(w workload) int {
	if w.sweep {
		return 40
	}
	return 10
}

// config is one benchmark run.
type config struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	// scale divides every access count; tests shrink cells with it.
	scale int64
	// spans is where the traced run writes its spans.
	spans string
	// golden holds the recorded digests; nil skips those checks.
	golden *golden
}

// golden is one workload's recorded digests.
type golden struct {
	// Prime is the digest of the priming unit, which every run repeats.
	Prime string `json:"prime"`
	// Seed1 is the run digest at seed 1.
	Seed1 string `json:"seed1"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]golden, error) {
	var g map[string]golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the number of samples behind the value.
	n int
}

// result is the outcome of one run: the JSON object the benchmark prints
// last, plus the lines it prints before.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	digest    string
	lines     []string
}

func (res *result) notef(format string, args ...any) {
	res.lines = append(res.lines, fmt.Sprintf(format, args...))
}

func digest(raws ...[]byte) string {
	h := sha256.New()
	for _, b := range raws {
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// run measures one workload: set-up, an untimed priming unit, then units
// until the measuring time has passed and at least minUnits ran. A traced
// run measures half as long untraced and then runs its first units again,
// untraced and traced in turn (tracedRun).
func run(ctx context.Context, cfg config) (result, error) {
	setup, err := measureSetup(ctx, cfg)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	var r runner = cellRunner{w: cfg.w, seed: cfg.seed, scale: cfg.scale}
	if cfg.w.sweep {
		sr, err := newSweepRunner(ctx, cfg.w, cfg.seed, cfg.scale, newGenStore())
		if err != nil {
			return result{}, err
		}
		r = sr
	}
	defer r.close()
	prime := r.run(ctx, 0)
	if prime.err != nil {
		return result{}, fmt.Errorf("priming unit: %w", prime.err)
	}
	runtime.GC()
	d := time.Duration(cfg.seconds * float64(time.Second))
	least := minUnits
	if cfg.trace {
		d, least = d/2, tracedUnits(cfg.w)
	}
	units, allocs, heapLive := timed(ctx, r, least, d)
	if len(units) < least {
		return result{}, fmt.Errorf("stopped after %d units: %w", len(units), ctx.Err())
	}

	res := result{Attempted: len(units)}
	failed := make([]bool, len(units))
	for i, u := range units {
		if u.err != nil {
			failed[i] = true
			res.notef("unit %d failed: %v", u.k, u.err)
		} else if _, err := u.cells(); err != nil {
			failed[i] = true
			res.notef("unit %d: %v", u.k, err)
		}
	}
	var raws [][]byte
	for _, u := range units[:min(digestUnits, len(units))] {
		raws = append(raws, u.raw)
	}
	res.digest = digest(raws...)
	res.notef("workload %s, seed %d: %d units, digest of units 1-%d %s", cfg.w.name, cfg.seed, len(units), len(raws), res.digest)
	var walls, refs []float64
	for _, u := range units {
		walls, refs = append(walls, u.wall.Seconds()*1e3), append(refs, u.ref.Seconds()*1e3)
	}
	res.notef("unscaled unit wall time p50 %.3f ms; reference loop p50 %.4f ms (nominal %v)", median(walls), median(refs), refNominal)
	allFailed := false
	if g := cfg.golden; g != nil {
		if got := digest(prime.raw); got != g.Prime {
			allFailed = true
			res.notef("priming unit digest %s, recorded %s", got, g.Prime)
		}
		if cfg.seed == 1 && len(raws) == digestUnits && res.digest != g.Seed1 {
			allFailed = true
			res.notef("seed 1 digest differs from the recorded %s", g.Seed1)
		}
	}

	if !cfg.trace {
		for _, i := range []int{0, len(units) - 1} {
			if !failed[i] {
				if err := checkReference(ctx, units[i]); err != nil {
					failed[i] = true
					res.notef("unit %d: %v", units[i].k, err)
				}
			}
		}
		res.Metrics, err = endToEnd(units, failed, setup, allocs, heapLive)
		if err != nil {
			return result{}, err
		}
	} else {
		traced, tfailed, m, err := tracedRun(ctx, cfg, prime, units, &res)
		if err != nil {
			return result{}, err
		}
		res.Attempted += traced
		res.Failed += tfailed
		res.Metrics = m
	}
	for _, f := range failed {
		if f {
			res.Failed++
		}
	}
	if allFailed {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measureSetup times a cold start setupReps times and returns the median
// in seconds at reference speed. A cold start builds a fresh simulator for
// each distinct geometry of unit 1 and runs its first cell on it, and for
// the sweep workload also starts a server until it answers. Construction
// alone takes a fraction of a millisecond, since pages are touched only
// once the first cell runs: too little to time steadily, and too little for
// the bound to let any construction work through.
func measureSetup(ctx context.Context, cfg config) (float64, error) {
	specs, err := cfg.w.unitSpecs(cfg.seed, 1, cfg.scale)
	if err != nil {
		return 0, err
	}
	seen := map[string]bool{}
	var geos = specs[:0:0]
	for _, rs := range specs {
		shape := rs
		shape.Seed = 0
		key, err := json.Marshal(shape)
		if err != nil {
			return 0, err
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			geos = append(geos, rs)
		}
	}
	var d []float64
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from a collected heap, as the first one does,
		// rather than wherever the previous ones left the collector.
		runtime.GC()
		ref := refLoop()
		t0 := time.Now()
		for _, rs := range geos {
			if _, err := freshCell(ctx, rs); err != nil {
				return 0, err
			}
		}
		var r *sweepRunner
		if cfg.w.sweep {
			if r, err = newSweepRunner(ctx, cfg.w, cfg.seed, cfg.scale, newGenStore()); err != nil {
				return 0, err
			}
		}
		wall := time.Since(t0)
		d = append(d, scaled(wall, (ref+refLoop())/2))
		if r != nil {
			if err := r.close(); err != nil {
				return 0, err
			}
		}
	}
	return median(d), nil
}

// timed runs units 1, 2, ... until d has passed and at least least units
// ran, timing the reference loop between units. It returns the units with
// the allocations made meanwhile and the heap live after unit minUnits.
// That heap is measured after a forced collection at a fixed unit: sampled
// peaks move with where the collector's cycle happens to be, and the sweep
// server keeps every sweep, so its heap grows with the run's length.
func timed(ctx context.Context, r runner, least int, d time.Duration) (units []unit, allocs, heapLive uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	units = make([]unit, 0, 4096)
	start := time.Now()
	ref := refLoop()
	for k := 1; (len(units) < least || time.Since(start) < d) && ctx.Err() == nil; k++ {
		u := r.run(ctx, k)
		if k == minUnits {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heapLive = ms.HeapAlloc
		}
		next := refLoop()
		u.ref, ref = (ref+next)/2, next
		units = append(units, u)
	}
	runtime.ReadMemStats(&ms)
	return units, ms.Mallocs - m0, heapLive
}

// checkReference recomputes a unit's cells by another path and compares
// bytes: a pooled cell against a fresh, unpooled simulator, and a sweep's
// cells against in-process service.RunCellSpec.
func checkReference(ctx context.Context, u unit) error {
	cells, err := u.cells()
	if err != nil {
		return err
	}
	for i, rs := range u.specs {
		var ref []byte
		if len(u.specs) == 1 {
			ref, err = freshCell(ctx, rs)
		} else {
			ref, err = service.RunCellSpec(ctx, rs)
		}
		if err != nil {
			return err
		}
		if !bytes.Equal(ref, cells[i]) {
			return fmt.Errorf("cell %d differs from its reference run", i)
		}
	}
	return nil
}

// endToEnd derives the end-to-end metrics from the untraced units. Host
// times are at reference speed (host.go).
func endToEnd(units []unit, failed []bool, setup float64, allocs, heapLive uint64) (map[string]metric, error) {
	var walls, rates []float64
	var cells, wall float64
	var sims []service.CellResult
	for i, u := range units {
		if failed[i] {
			continue
		}
		var q int64
		for _, rs := range u.specs {
			n, err := quota(rs)
			if err != nil {
				return nil, err
			}
			q += n
		}
		walls = append(walls, u.host()*1e3)
		rates = append(rates, float64(q)/u.host())
		cells += float64(len(u.specs))
		wall += u.host()
		if i < minUnits {
			raws, _ := u.cells()
			for _, raw := range raws {
				var c service.CellResult
				if err := json.Unmarshal(raw, &c); err != nil {
					return nil, fmt.Errorf("unit %d: %w", u.k, err)
				}
				sims = append(sims, c)
			}
		}
	}
	p90, err := tailPercentile(walls, 90)
	if err != nil {
		return nil, fmt.Errorf("latency_ms_p90: %w", err)
	}
	var hit, lat, off, ipc []float64
	for _, c := range sims {
		hit = append(hit, c.HitRate)
		lat = append(lat, c.AvgLatencyCycles)
		off = append(off, float64(c.OffchipReadBytes+c.OffchipWriteBytes)/1e6)
		var cores []float64
		for _, pc := range c.PerCore {
			cores = append(cores, pc.IPC)
		}
		ipc = append(ipc, mean(cores))
	}
	n, ns := len(walls), len(sims)
	return fill(endToEndMetrics, map[string]metric{
		"cells_per_s":             {Value: cells / wall, n: n},
		"accesses_per_s":          {Value: median(rates), n: n},
		"latency_ms_p50":          {Value: median(walls), n: n},
		"latency_ms_p90":          {Value: p90, n: n},
		"setup_s":                 {Value: setup, n: setupReps},
		"heap_live_mb":            {Value: float64(heapLive) / 1e6, n: n},
		"allocs_per_cell":         {Value: float64(allocs) / cells, n: int(cells)},
		"hit_rate":                {Value: mean(hit), n: ns},
		"avg_read_latency_cycles": {Value: mean(lat), n: ns},
		"offchip_mb_per_cell":     {Value: mean(off), n: ns},
		"ipc":                     {Value: mean(ipc), n: ns},
	})
}

// fill gives each computed metric the unit its definition names, and checks
// that exactly the defined metrics were computed.
func fill(defs []metricDef, got map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", d.name)
		}
		m.Unit = d.unit
		out[d.name] = m
	}
	if len(got) != len(defs) {
		return nil, fmt.Errorf("computed %d metrics, %d defined", len(got), len(defs))
	}
	return out, nil
}

// tracedRun runs the priming unit and units 1..tracedUnits again, each
// first untraced and then traced on runners of their own, so that the two
// runs of a unit are adjacent in time. It checks both against the bytes of
// the untraced run, writes the spans, and returns the number of units it
// ran, how many failed, and the per-layer metrics.
func tracedRun(ctx context.Context, cfg config, prime unit, untraced []unit, res *result) (int, int, map[string]metric, error) {
	t := newTracer()
	n := tracedUnits(cfg.w)
	var (
		ru, rt runner
		sr     *sweepRunner
		st     *timedStore
		cr     *tracedCellRunner
		before map[string]float64
		err    error
	)
	if cfg.w.sweep {
		// Both sweep runners start empty, so each sees the store hits the
		// untraced run saw.
		if ru, err = newSweepRunner(ctx, cfg.w, cfg.seed, cfg.scale, newGenStore()); err != nil {
			return 0, 0, nil, err
		}
		defer ru.close()
		st = &timedStore{inner: newGenStore(), t: t}
		if sr, err = newSweepRunner(ctx, cfg.w, cfg.seed, cfg.scale, st); err != nil {
			return 0, 0, nil, err
		}
		defer sr.close()
		sr.t, sr.lay = t, &sweepLayers{origins: map[string]int{}}
		rt = sr
	} else {
		ru = cellRunner{w: cfg.w, seed: cfg.seed, scale: cfg.scale}
		cr = &tracedCellRunner{w: cfg.w, seed: cfg.seed, scale: cfg.scale, t: t}
		rt = cr
	}
	pairs := [][2]unit{{ru.run(ctx, 0), rt.run(ctx, 0)}}
	switch {
	case sr != nil:
		if before, err = scrape(ctx, sr.cl); err != nil {
			return 0, 0, nil, err
		}
		st.zero()
		*sr.lay = sweepLayers{origins: map[string]int{}}
	case pairs[0][1].err == nil:
		cr.zero()
	}
	ref := refLoop()
	timedRun := func(r runner, k int) unit {
		u := r.run(ctx, k)
		next := refLoop()
		u.ref, ref = (ref+next)/2, next
		return u
	}
	for k := 1; k <= n; k++ {
		u := timedRun(ru, k)
		if cr != nil {
			cr.record = k == n
		}
		pairs = append(pairs, [2]unit{u, timedRun(rt, k)})
	}
	var values map[string]float64
	if sr != nil {
		after, err := scrape(ctx, sr.cl)
		if err != nil {
			return 0, 0, nil, err
		}
		values = sweepMetrics(*sr.lay, st, before, after)
	} else {
		coreNs, err := cr.replayCore()
		if err != nil {
			return 0, 0, nil, err
		}
		values = cr.layers(coreNs)
	}

	failed := 0
	want := append([]unit{prime}, untraced[:n]...)
	var slow []float64
	for i, p := range pairs {
		bad := false
		for j, u := range p {
			kind := [2]string{"untraced", "traced"}[j]
			switch {
			case u.err != nil:
				bad = true
				res.notef("%s rerun of unit %d failed: %v", kind, u.k, u.err)
			case !bytes.Equal(u.raw, want[i].raw):
				bad = true
				res.notef("%s rerun of unit %d differs from the untraced run", kind, u.k)
			}
		}
		if bad {
			failed++
		} else if i > 0 {
			slow = append(slow, p[1].host()/p[0].host())
		}
	}
	values["tracing.overhead_frac"] = median(slow) - 1

	if err := t.write(cfg.spans); err != nil {
		return 0, 0, nil, fmt.Errorf("writing spans: %w", err)
	}
	res.notef("%d spans written to %s", len(t.spans), cfg.spans)
	noteSelfTimes(t, n, res)

	got := map[string]metric{}
	for _, d := range perLayerMetrics {
		got[d.name] = metric{Value: values[d.name], n: n}
	}
	for name := range values {
		if _, ok := got[name]; !ok {
			return 0, 0, nil, fmt.Errorf("per-layer metric %s not defined", name)
		}
	}
	m, err := fill(perLayerMetrics, got)
	return len(pairs), failed, m, err
}

// sampledSpans are the per-access spans, recorded for 1 call in sampleEvery.
var sampledSpans = map[string]bool{"trace.next": true, "dramcache.hit": true, "dramcache.miss": true}

// noteSelfTimes adds a table of the mean time and self time per timed unit
// of every unsampled span name. Sampled spans are left out of the self
// times: they cover only 1 call in sampleEvery.
func noteSelfTimes(t *tracer, units int, res *result) {
	spans := append([]span(nil), t.spans...)
	for i := range spans {
		if sampledSpans[spans[i].Name] {
			spans[i].Parent = -1
		}
	}
	self := selfTimes(spans)
	total, own := map[string]int64{}, map[string]int64{}
	for i, s := range spans {
		if s.Cell > 0 && !sampledSpans[s.Name] {
			total[s.Name] += s.End - s.Start
			own[s.Name] += self[i]
		}
	}
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Strings(names)
	res.notef("%-16s %12s %12s   (ms per traced unit)", "span", "time", "self")
	for _, name := range names {
		res.notef("%-16s %12.4f %12.4f", name, float64(total[name])/float64(units)/1e6, float64(own[name])/float64(units)/1e6)
	}
}
