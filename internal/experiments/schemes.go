package experiments

import (
	"context"
	"fmt"

	"bimodal/internal/dramcache"
	"bimodal/internal/energy"
	"bimodal/internal/service"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/stats"
	"bimodal/internal/workloads"
)

// reference is the scheme every figure normalizes against: AlloyCache,
// the registry's first baseline.
const reference = "alloy"

func init() {
	register(Experiment{ID: "fig7", Title: "Figure 7: ANTT improvement of BiModal over AlloyCache (4/8/16-core)", Run: fig7})
	register(Experiment{ID: "fig8a", Title: "Figure 8a: ANTT improvement of the ablations (8-core)", Run: fig8a})
	register(Experiment{ID: "fig8b", Title: "Figure 8b: DRAM cache hit rates (quad-core)", Run: fig8b})
	register(Experiment{ID: "fig8c", Title: "Figure 8c: average access latency across schemes (quad-core)", Run: fig8c})
	register(Experiment{ID: "fig9a", Title: "Figure 9a: wasted off-chip bandwidth, fixed-512B vs BiModal (8-core)", Run: fig9a})
	register(Experiment{ID: "fig9b", Title: "Figure 9b: metadata row-buffer hit rate, separate vs co-located (quad-core)", Run: fig9b})
	register(Experiment{ID: "fig9c", Title: "Figure 9c: way locator hit rate vs table size K (quad-core)", Run: fig9c})
	register(Experiment{ID: "fig10", Title: "Figure 10: fraction of accesses to small blocks (quad-core)", Run: fig10})
	register(Experiment{ID: "fig11", Title: "Figure 11: memory energy savings over AlloyCache (8-core)", Run: fig11})
	register(Experiment{ID: "table6", Title: "Table VI: ANTT improvement over prefetch-enabled baseline (quad-core)", Run: table6})
	register(Experiment{ID: "fig12", Title: "Figure 12: sensitivity to cache size, block size and associativity (quad-core)", Run: fig12})
}

// cellSpec describes one timing cell: the named mix on the named scheme
// at the experiment's scale. Capacity is scaled to 1/4 of the Table IV
// presets so the short replays reach eviction steady state (see
// sim.Options.CacheDivisor).
func (o Options) cellSpec(scheme, mix string) spec.RunSpec {
	return spec.RunSpec{Scheme: scheme, Mix: mix, Seed: o.Seed,
		Options: spec.Options{AccessesPerCore: o.AccessesPerCore, CacheDivisor: 4}}
}

// anttSpec is cellSpec asking for ANTT, which anttOf reads.
func (o Options) anttSpec(scheme, mix string) spec.RunSpec {
	rs := o.cellSpec(scheme, mix)
	rs.Options.ANTT = true
	return rs
}

// reportOf and anttOf are the batch keeps of the figures that read a
// cell's scheme report or its ANTT.
func reportOf(res sim.RunResult) dramcache.Report { return res.Report }
func anttOf(res sim.RunResult) float64            { return res.ANTT }

// batch is one experiment's timing cells, each a run spec labelled for
// its progress line. run executes them as one service.RunSpecsEach call,
// the way a sweep runs its misses: cells that share a warm prefix share
// one run, and runs share core streams.
type batch[T any] struct {
	labels []string
	specs  []spec.RunSpec
	// keep reads what the table needs off a cell's result. It runs inside
	// the cell's run, so it can read scheme state no result carries
	// (res.Scheme is live), and concurrently for cells of different runs.
	keep func(res sim.RunResult) T
}

// add appends a cell running rs.
func (b *batch[T]) add(label string, rs spec.RunSpec) {
	b.labels = append(b.labels, label)
	b.specs = append(b.specs, rs)
}

// run executes the cells in their canonical form, at most Options.Workers
// at a time, and returns keep's values in cell order, the same at any
// worker count. One progress line is emitted per cell when
// Options.Progress is set.
func (b *batch[T]) run(ctx context.Context, o Options, id string) ([]T, error) {
	for i, rs := range b.specs {
		c, err := rs.Canonical()
		if err != nil {
			return nil, err
		}
		b.specs[i] = c
	}
	n := newNotifier(o, id, len(b.specs))
	out := make([]T, len(b.specs))
	err := service.RunSpecsEach(ctx, b.specs, o.Workers, func(k int, res sim.RunResult) error {
		out[k] = b.keep(res)
		n.cellDone(b.labels[k])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fig7 compares ANTT of BiModal against the AlloyCache baseline across
// core counts. Cells: (mix × {alloy, bimodal}) for every core count.
func fig7(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Figure 7: ANTT improvement over AlloyCache",
		"mix", "alloy ANTT", "bimodal ANTT", "improvement")
	type group struct {
		cores int
		mixes []workloads.Mix
	}
	var groups []group
	b := batch[float64]{keep: anttOf}
	for _, cores := range []int{4, 8, 16} {
		mixes := o.mixes(cores)
		groups = append(groups, group{cores, mixes})
		for _, mix := range mixes {
			b.add(mix.Name+" alloy", o.anttSpec(reference, mix.Name))
			b.add(mix.Name+" bimodal", o.anttSpec("bimodal", mix.Name))
		}
	}
	res, err := b.run(ctx, o, "fig7")
	if err != nil {
		return nil, err
	}
	i := 0
	for _, g := range groups {
		var imps []float64
		for _, mix := range g.mixes {
			aANTT, bANTT := res[i], res[i+1]
			i += 2
			imp := stats.Improvement(aANTT, bANTT)
			imps = append(imps, imp)
			tbl.AddRow(mix.Name, fmt.Sprintf("%.3f", aANTT), fmt.Sprintf("%.3f", bANTT), stats.FmtPct(imp))
		}
		tbl.AddRow(fmt.Sprintf("average(%d-core)", g.cores), "", "", stats.FmtPct(stats.MeanOf(imps)))
	}
	return tbl, nil
}

// fig8a isolates the two mechanisms: bi-modality alone, way location
// alone, and the full design, all against AlloyCache on 8-core mixes.
func fig8a(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Figure 8a: ablation ANTT improvement over AlloyCache (8-core)",
		"mix", "bimodal-only", "waylocator-only", "bimodal")
	mixes := o.mixes(8)
	b := batch[float64]{keep: anttOf}
	for _, mix := range mixes {
		for _, scheme := range []string{reference, "bimodal-only", "wl-only", "bimodal"} {
			b.add(mix.Name+" "+scheme, o.anttSpec(scheme, mix.Name))
		}
	}
	res, err := b.run(ctx, o, "fig8a")
	if err != nil {
		return nil, err
	}
	var iOnly, iWL, iFull []float64
	for i, mix := range mixes {
		aANTT, bOnly, bWL, bFull := res[4*i], res[4*i+1], res[4*i+2], res[4*i+3]
		i1, i2, i3 := stats.Improvement(aANTT, bOnly), stats.Improvement(aANTT, bWL), stats.Improvement(aANTT, bFull)
		iOnly, iWL, iFull = append(iOnly, i1), append(iWL, i2), append(iFull, i3)
		tbl.AddRow(mix.Name, stats.FmtPct(i1), stats.FmtPct(i2), stats.FmtPct(i3))
	}
	tbl.AddRow("average", stats.FmtPct(stats.MeanOf(iOnly)), stats.FmtPct(stats.MeanOf(iWL)), stats.FmtPct(stats.MeanOf(iFull)))
	return tbl, nil
}

// fig8b compares cache hit rates: AlloyCache, fixed-512B, BiModal.
func fig8b(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Figure 8b: DRAM cache hit rate (quad-core)",
		"mix", "alloy", "fixed-512B", "bimodal")
	mixes := o.mixes(4)
	b := batch[dramcache.Report]{keep: reportOf}
	for _, mix := range mixes {
		b.add(mix.Name+" alloy", o.cellSpec(reference, mix.Name))
		b.add(mix.Name+" fixed-512B", o.cellSpec("wl-only", mix.Name))
		b.add(mix.Name+" bimodal", o.cellSpec("bimodal", mix.Name))
	}
	res, err := b.run(ctx, o, "fig8b")
	if err != nil {
		return nil, err
	}
	var gFixed, gBM []float64
	for i, mix := range mixes {
		ra, rf, rb := res[3*i], res[3*i+1], res[3*i+2]
		if ra.HitRate() > 0 {
			gFixed = append(gFixed, rf.HitRate()/ra.HitRate()-1)
			gBM = append(gBM, rb.HitRate()/ra.HitRate()-1)
		}
		tbl.AddRow(mix.Name, stats.FmtPct(ra.HitRate()), stats.FmtPct(rf.HitRate()), stats.FmtPct(rb.HitRate()))
	}
	tbl.AddRow("avg gain vs alloy", "", stats.FmtPct(stats.MeanOf(gFixed)), stats.FmtPct(stats.MeanOf(gBM)))
	return tbl, nil
}

// fig8c compares the average LLSC miss penalty (DRAM cache access latency)
// across all schemes.
func fig8c(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	schemes := []string{"bimodal"}
	for _, d := range spec.Baselines() {
		schemes = append(schemes, d.Name)
	}
	header := append([]string{"mix"}, schemes...)
	tbl := stats.NewTable("Figure 8c: average access latency in CPU cycles (quad-core)", header...)
	mixes := o.mixes(4)
	b := batch[dramcache.Report]{keep: reportOf}
	for _, mix := range mixes {
		for _, s := range schemes {
			b.add(mix.Name+" "+s, o.cellSpec(s, mix.Name))
		}
	}
	res, err := b.run(ctx, o, "fig8c")
	if err != nil {
		return nil, err
	}
	lat := make(map[string][]float64)
	for i, mix := range mixes {
		row := []string{mix.Name}
		for j, s := range schemes {
			r := res[i*len(schemes)+j]
			lat[s] = append(lat[s], r.AvgLatency())
			row = append(row, fmt.Sprintf("%.1f", r.AvgLatency()))
		}
		tbl.AddRow(row...)
	}
	avg := []string{"average"}
	for _, s := range schemes {
		avg = append(avg, fmt.Sprintf("%.1f", stats.MeanOf(lat[s])))
	}
	tbl.AddRow(avg...)
	bm := stats.MeanOf(lat["bimodal"])
	red := []string{"bimodal reduction", ""}
	for _, s := range schemes[1:] {
		red = append(red, stats.FmtPct(stats.Improvement(stats.MeanOf(lat[s]), bm)))
	}
	tbl.AddRow(red...)
	return tbl, nil
}

// fig9a compares wasted off-chip fetch bytes between the fixed-512B
// organization and BiModal.
func fig9a(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Figure 9a: wasted off-chip bandwidth (8-core)",
		"mix", "fixed-512B", "bimodal", "savings")
	mixes := o.mixes(8)
	b := batch[dramcache.Report]{keep: reportOf}
	for _, mix := range mixes {
		b.add(mix.Name+" fixed-512B", o.cellSpec("wl-only", mix.Name))
		b.add(mix.Name+" bimodal", o.cellSpec("bimodal", mix.Name))
	}
	res, err := b.run(ctx, o, "fig9a")
	if err != nil {
		return nil, err
	}
	var savings []float64
	for i, mix := range mixes {
		rf, rb := res[2*i], res[2*i+1]
		s := stats.Improvement(float64(rf.WastedFetchBytes), float64(rb.WastedFetchBytes))
		savings = append(savings, s)
		tbl.AddRow(mix.Name, stats.FmtBytes(float64(rf.WastedFetchBytes)), stats.FmtBytes(float64(rb.WastedFetchBytes)), stats.FmtPct(s))
	}
	tbl.AddRow("average", "", "", stats.FmtPct(stats.MeanOf(savings)))
	return tbl, nil
}

// fig9b compares the metadata-access row-buffer hit rate with the
// dedicated metadata bank against co-located tags.
func fig9b(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Figure 9b: metadata row-buffer hit rate (quad-core)",
		"mix", "co-located", "separate bank", "gain")
	mixes := o.mixes(4)
	b := batch[dramcache.Report]{keep: reportOf}
	for _, mix := range mixes {
		b.add(mix.Name+" co-located", o.cellSpec("bimodal-cometa", mix.Name))
		b.add(mix.Name+" separate", o.cellSpec("bimodal", mix.Name))
	}
	res, err := b.run(ctx, o, "fig9b")
	if err != nil {
		return nil, err
	}
	// The gain is undefined when the co-located rate is 0: such mixes
	// print n/a and stay out of the average.
	var gains []float64
	for i, mix := range mixes {
		rc, rs := res[2*i], res[2*i+1]
		gain := "n/a"
		if rc.MetaRowHitRate() > 0 {
			g := rs.MetaRowHitRate()/rc.MetaRowHitRate() - 1
			gains = append(gains, g)
			gain = stats.FmtPct(g)
		}
		tbl.AddRow(mix.Name, stats.FmtPct(rc.MetaRowHitRate()), stats.FmtPct(rs.MetaRowHitRate()), gain)
	}
	avg := "n/a"
	if len(gains) > 0 {
		avg = stats.FmtPct(stats.MeanOf(gains))
	}
	tbl.AddRow("average", "", "", avg)
	return tbl, nil
}

// fig9c sweeps the way locator table size K.
func fig9c(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	ks := []uint{10, 12, 14, 16}
	header := []string{"mix"}
	for _, k := range ks {
		header = append(header, fmt.Sprintf("K=%d", k))
	}
	tbl := stats.NewTable("Figure 9c: way locator hit rate vs K (quad-core)", header...)
	mixes := o.mixes(4)
	b := batch[dramcache.Report]{keep: reportOf}
	for _, mix := range mixes {
		for _, k := range ks {
			rs := o.cellSpec("bimodal", mix.Name)
			rs.Params = spec.Params{"way_locator_k": int64(k)}
			b.add(fmt.Sprintf("%s K=%d", mix.Name, k), rs)
		}
	}
	res, err := b.run(ctx, o, "fig9c")
	if err != nil {
		return nil, err
	}
	sums := make([][]float64, len(ks))
	for i, mix := range mixes {
		row := []string{mix.Name}
		for ki := range ks {
			r := res[i*len(ks)+ki]
			sums[ki] = append(sums[ki], r.LocatorHitRate())
			row = append(row, stats.FmtPct(r.LocatorHitRate()))
		}
		tbl.AddRow(row...)
	}
	avg := []string{"average"}
	for _, s := range sums {
		avg = append(avg, stats.FmtPct(stats.MeanOf(s)))
	}
	tbl.AddRow(avg...)
	return tbl, nil
}

// fig10 reports the fraction of accesses served at 64B granularity.
func fig10(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Figure 10: fraction of accesses to small blocks (quad-core)",
		"mix", "small fraction", "global state")
	mixes := o.mixes(4)
	type smallState struct {
		small float64
		state string
	}
	b := batch[smallState]{keep: func(res sim.RunResult) smallState {
		bm := res.Scheme.(*dramcache.BiModal)
		return smallState{res.Report.SmallFraction, bm.Core().GlobalState().String()}
	}}
	for _, mix := range mixes {
		b.add(mix.Name+" bimodal", o.cellSpec("bimodal", mix.Name))
	}
	res, err := b.run(ctx, o, "fig10")
	if err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		tbl.AddRow(mix.Name, stats.FmtPct(res[i].small), res[i].state)
	}
	return tbl, nil
}

// fig11 compares memory energy (DRAM cache + main memory) per access.
func fig11(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Figure 11: memory energy per access, nJ (8-core)",
		"mix", "alloy", "bimodal", "savings")
	mixes := o.mixes(8)
	b := batch[float64]{keep: func(res sim.RunResult) float64 {
		return energy.PerAccess(res.Energy, res.Report.Accesses)
	}}
	for _, mix := range mixes {
		b.add(mix.Name+" alloy", o.cellSpec(reference, mix.Name))
		b.add(mix.Name+" bimodal", o.cellSpec("bimodal", mix.Name))
	}
	res, err := b.run(ctx, o, "fig11")
	if err != nil {
		return nil, err
	}
	var savings []float64
	for i, mix := range mixes {
		ea, eb := res[2*i], res[2*i+1]
		s := stats.Improvement(ea, eb)
		savings = append(savings, s)
		tbl.AddRow(mix.Name, fmt.Sprintf("%.1f", ea), fmt.Sprintf("%.1f", eb), stats.FmtPct(s))
	}
	tbl.AddRow("average", "", "", stats.FmtPct(stats.MeanOf(savings)))
	return tbl, nil
}

// table6 evaluates BiModal against a prefetch-enabled baseline for
// next-N-lines prefetchers with N in {1, 3}, with prefetches either
// treated as normal accesses or bypassing on miss.
func table6(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Table VI: ANTT improvement over prefetch-enabled AlloyCache (quad-core)",
		"N", "PREF_NORMAL", "PREF_BYPASS")
	mixes := o.mixes(4)
	if len(mixes) > 8 {
		mixes = mixes[:8]
	}
	ns := []int{1, 3}
	b := batch[float64]{keep: anttOf}
	for _, n := range ns {
		for _, mix := range mixes {
			for _, c := range []struct{ label, scheme string }{
				{"alloy", reference}, {"normal", "bimodal"}, {"bypass", "bimodal-bypass"},
			} {
				rs := o.anttSpec(c.scheme, mix.Name)
				rs.Options.Prefetch = n
				b.add(fmt.Sprintf("%s N=%d %s", mix.Name, n, c.label), rs)
			}
		}
	}
	res, err := b.run(ctx, o, "table6")
	if err != nil {
		return nil, err
	}
	i := 0
	for _, n := range ns {
		var normal, bypass []float64
		for range mixes {
			aANTT, nANTT, bANTT := res[i], res[i+1], res[i+2]
			i += 3
			normal = append(normal, stats.Improvement(aANTT, nANTT))
			bypass = append(bypass, stats.Improvement(aANTT, bANTT))
		}
		tbl.AddRow(fmt.Sprint(n), stats.FmtPct(stats.MeanOf(normal)), stats.FmtPct(stats.MeanOf(bypass)))
	}
	return tbl, nil
}

// fig12 sweeps cache size, big block size and associativity; every
// configuration is compared to an AlloyCache of the same capacity.
// The notation BiModal(X-Y-Z) is cache size X, big block Y, big-block
// associativity Z.
func fig12(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Figure 12: sensitivity (quad-core, ANTT improvement vs same-size AlloyCache)",
		"config", "improvement")
	type cfg struct {
		label      string
		cacheBytes uint64
		setBytes   int64
		bigBlock   int64
		minBig     int64
		threshold  int64
	}
	cfgs := []cfg{
		{"BiModal(64M-512-4)", 64 << 20, 2048, 512, 2, 5},
		{"BiModal(128M-512-4)", 128 << 20, 2048, 512, 2, 5},
		{"BiModal(512M-512-4)", 512 << 20, 2048, 512, 2, 5},
		{"BiModal(128M-256-8)", 128 << 20, 2048, 256, 4, 3},
		{"BiModal(128M-1024-4)", 128 << 20, 4096, 1024, 2, 10},
		{"BiModal(128M-512-8)", 128 << 20, 4096, 512, 4, 5},
	}
	mixes := o.mixes(4)
	if len(mixes) > 6 {
		mixes = mixes[:6]
	}
	// The Alloy cells of one cache size are one spec, so they read one run.
	b := batch[float64]{keep: anttOf}
	for _, c := range cfgs {
		for _, mix := range mixes {
			alloy := o.anttSpec(reference, mix.Name)
			alloy.Options.CacheBytes = c.cacheBytes / 4 // the same capacity scaling as cellSpec
			bm := alloy
			bm.Scheme = "bimodal"
			bm.Params = spec.Params{"set_bytes": c.setBytes, "big_block": c.bigBlock, "min_big": c.minBig, "threshold": c.threshold}
			b.add(mix.Name+" "+c.label+" alloy", alloy)
			b.add(mix.Name+" "+c.label, bm)
		}
	}
	res, err := b.run(ctx, o, "fig12")
	if err != nil {
		return nil, err
	}
	i := 0
	for _, c := range cfgs {
		var imps []float64
		for range mixes {
			aANTT, bANTT := res[i], res[i+1]
			i += 2
			imps = append(imps, stats.Improvement(aANTT, bANTT))
		}
		tbl.AddRow(c.label, stats.FmtPct(stats.MeanOf(imps)))
	}
	return tbl, nil
}
