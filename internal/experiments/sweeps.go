package experiments

import (
	"context"
	"fmt"

	"bimodal/internal/core"
	"bimodal/internal/dramcache"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/stats"
	"bimodal/internal/workloads"
)

// The paper's trace-driven simulator "facilitated a comprehensive analysis
// ... across a wide range of DRAM cache parameters including cache size,
// block size, associativity, predictor table size and thresholds"
// (Section IV). These sweeps reproduce that design-space exploration and
// the specific claims attached to it: T = 5 balances hit rate against
// over-fetch (Section III-B3), W = 0.75 "provided a good tradeoff"
// (Section III-B4), and a modest predictor table suffices.

func init() {
	register(Experiment{
		ID:    "sweep-threshold",
		Title: "Design sweep: utilization threshold T (Section III-B3; paper picks T=5)",
		Run:   sweepThreshold,
	})
	register(Experiment{
		ID:    "sweep-weight",
		Title: "Design sweep: demand weight W (Section III-B4; paper picks W=0.75)",
		Run:   sweepWeight,
	})
	register(Experiment{
		ID:    "sweep-predictor",
		Title: "Design sweep: size predictor table bits P",
		Run:   sweepPredictor,
	})
}

// sweepMixes picks a small balanced set of mixes: streaming, mixed and
// irregular, so the sweeps expose both failure directions.
func sweepMixes(o Options) []string {
	names := []string{"Q2", "Q6", "Q7", "Q23"}
	if o.MaxMixes > 0 && o.MaxMixes < len(names) {
		names = names[:o.MaxMixes]
	}
	return names
}

// coreParamCell builds a cell running plain BiModal on one mix with one
// mutation of its run-length-scaled core parameters. W and P are not spec
// params, so these cells build through the bimodal descriptor with
// spec.BuildConfig.CoreParams instead of through sim.FactoryForSpec.
func coreParamCell(o Options, label, mixName string, mutate func(*core.Params)) cell[dramcache.Report] {
	rs := o.cellSpec("bimodal", mixName)
	return cell[dramcache.Report]{label: label, run: func(ctx context.Context) (dramcache.Report, error) {
		d, err := spec.Lookup(rs.Scheme)
		if err != nil {
			return dramcache.Report{}, err
		}
		mix, err := workloads.MixForSpec(rs)
		if err != nil {
			return dramcache.Report{}, err
		}
		factory := func(cfg dramcache.Config) dramcache.Scheme {
			p := sim.ScaledCoreParams(cfg.CacheBytes, mix.Cores(), sim.OptionsForSpec(rs))
			mutate(&p)
			s, err := d.New(spec.BuildConfig{Cache: cfg, CoreParams: &p}, nil)
			if err != nil {
				panic(fmt.Sprintf("experiments: building %s: %v", label, err))
			}
			return s
		}
		res, err := runSim(ctx, sim.NewSim(mix, factory, sim.OptionsForSpec(rs)))
		return res.Report, err
	}}
}

// sweepThreshold varies T: low thresholds classify almost everything big
// (more over-fetch), high thresholds starve big blocks (more misses on
// streaming data). Cells: (T × mix).
func sweepThreshold(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Design sweep: threshold T",
		"T", "avg latency", "wasted bytes", "small fraction")
	ts := []int{2, 3, 4, 5, 6, 7, 8}
	mixNames := sweepMixes(o)
	var cells []cell[dramcache.Report]
	for _, T := range ts {
		for _, mixName := range mixNames {
			rs := o.cellSpec("bimodal", mixName)
			rs.Params = spec.Params{"threshold": int64(T)}
			cells = append(cells, reportCell(fmt.Sprintf("%s T=%d", mixName, T), o, rs))
		}
	}
	res, err := runCells(ctx, o, "sweep-threshold", cells)
	if err != nil {
		return nil, err
	}
	for ti, T := range ts {
		var lat, small []float64
		var wasted int64
		for mi := range mixNames {
			r := res[ti*len(mixNames)+mi]
			lat = append(lat, r.AvgLatency())
			small = append(small, r.SmallFraction)
			wasted += r.WastedFetchBytes
		}
		tbl.AddRow(fmt.Sprint(T),
			fmt.Sprintf("%.1f", stats.MeanOf(lat)),
			stats.FmtBytes(float64(wasted)),
			stats.FmtPct(stats.MeanOf(small)))
	}
	return tbl, nil
}

// sweepWeight varies W, which biases the global-state adaptation toward
// big (W < 1) or small blocks.
func sweepWeight(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Design sweep: weight W",
		"W", "avg latency", "hit rate", "small fraction")
	ws := []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0}
	mixNames := sweepMixes(o)
	var cells []cell[dramcache.Report]
	for _, W := range ws {
		for _, mixName := range mixNames {
			cells = append(cells, coreParamCell(o, fmt.Sprintf("%s W=%.2f", mixName, W), mixName,
				func(p *core.Params) { p.Weight = W }))
		}
	}
	res, err := runCells(ctx, o, "sweep-weight", cells)
	if err != nil {
		return nil, err
	}
	for wi, W := range ws {
		var lat, hit, small []float64
		for mi := range mixNames {
			r := res[wi*len(mixNames)+mi]
			lat = append(lat, r.AvgLatency())
			hit = append(hit, r.HitRate())
			small = append(small, r.SmallFraction)
		}
		tbl.AddRow(fmt.Sprintf("%.2f", W),
			fmt.Sprintf("%.1f", stats.MeanOf(lat)),
			stats.FmtPct(stats.MeanOf(hit)),
			stats.FmtPct(stats.MeanOf(small)))
	}
	return tbl, nil
}

// sweepPredictor varies the predictor table size.
func sweepPredictor(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Design sweep: predictor bits P",
		"P", "entries", "avg latency", "wasted bytes")
	ps := []uint{6, 8, 10, 12, 14}
	mixNames := sweepMixes(o)
	var cells []cell[dramcache.Report]
	for _, P := range ps {
		for _, mixName := range mixNames {
			cells = append(cells, coreParamCell(o, fmt.Sprintf("%s P=%d", mixName, P), mixName,
				func(p *core.Params) { p.PredictorBits = P }))
		}
	}
	res, err := runCells(ctx, o, "sweep-predictor", cells)
	if err != nil {
		return nil, err
	}
	for pi, P := range ps {
		var lat []float64
		var wasted int64
		for mi := range mixNames {
			r := res[pi*len(mixNames)+mi]
			lat = append(lat, r.AvgLatency())
			wasted += r.WastedFetchBytes
		}
		tbl.AddRow(fmt.Sprint(P), fmt.Sprint(1<<P),
			fmt.Sprintf("%.1f", stats.MeanOf(lat)),
			stats.FmtBytes(float64(wasted)))
	}
	return tbl, nil
}
