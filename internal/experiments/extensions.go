package experiments

import (
	"context"
	"fmt"

	"bimodal/internal/dramcache"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "ext-misspred",
		Title: "Extension (footnote 11): miss predictor on top of BiModal (quad-core)",
		Run:   extMissPred,
	})
	register(Experiment{
		ID:    "ext-victim",
		Title: "Extension (related work): victim cache yields little benefit (quad-core)",
		Run:   extVictim,
	})
}

// extMissPred measures the orthogonal miss-latency optimization the paper
// declined to include: a hit/miss predictor issuing off-chip probes in
// parallel with the tag access on predicted misses.
func extMissPred(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Extension: BiModal + miss predictor (quad-core)",
		"mix", "base latency", "with predictor", "reduction", "wasted probes")
	mixes := o.mixes(4)
	type predResult struct {
		latency     float64
		wastedProbe int64
	}
	b := batch[predResult]{keep: func(res sim.RunResult) predResult {
		bm := res.Scheme.(*dramcache.BiModal)
		return predResult{res.Report.AvgLatency(), bm.WastedProbeBytes}
	}}
	for _, mix := range mixes {
		rs := o.cellSpec("bimodal", mix.Name)
		b.add(mix.Name+" bimodal", rs)
		rs.Params = spec.Params{"miss_predictor": 1}
		b.add(mix.Name+" miss-predictor", rs)
	}
	res, err := b.run(ctx, o, "ext-misspred")
	if err != nil {
		return nil, err
	}
	var reds []float64
	for i, mix := range mixes {
		base, pred := res[2*i], res[2*i+1]
		red := stats.Improvement(base.latency, pred.latency)
		reds = append(reds, red)
		tbl.AddRow(mix.Name,
			fmt.Sprintf("%.1f", base.latency),
			fmt.Sprintf("%.1f", pred.latency),
			stats.FmtPct(red),
			stats.FmtBytes(float64(pred.wastedProbe)))
	}
	tbl.AddRow("average", "", "", stats.FmtPct(stats.MeanOf(reds)), "")
	return tbl, nil
}

// extVictim reproduces the paper's negative result: retaining evicted
// blocks in a victim buffer barely moves hit rate or latency because
// victims see little temporal reuse at this level of the hierarchy.
func extVictim(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Extension: BiModal + victim buffer (quad-core)",
		"mix", "base hit rate", "with 256-entry buffer", "victim hits/miss", "latency delta")
	mixes := o.mixes(4)
	type victimResult struct {
		rep        dramcache.Report
		victimHits int64
	}
	b := batch[victimResult]{keep: func(res sim.RunResult) victimResult {
		return victimResult{res.Report, res.Scheme.(*dramcache.BiModal).VictimHits}
	}}
	for _, mix := range mixes {
		rs := o.cellSpec("bimodal", mix.Name)
		b.add(mix.Name+" bimodal", rs)
		rs.Params = spec.Params{"victim_entries": 256}
		b.add(mix.Name+" victim-buffer", rs)
	}
	res, err := b.run(ctx, o, "ext-victim")
	if err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		base, vic := res[2*i].rep, res[2*i+1]
		var perMiss float64
		if misses := vic.rep.Accesses - vic.rep.Hits; misses > 0 {
			perMiss = float64(vic.victimHits) / float64(misses)
		}
		tbl.AddRow(mix.Name,
			stats.FmtPct(base.HitRate()),
			stats.FmtPct(vic.rep.HitRate()),
			stats.FmtPct(perMiss),
			stats.FmtPct(stats.Improvement(base.AvgLatency(), vic.rep.AvgLatency())))
	}
	return tbl, nil
}
