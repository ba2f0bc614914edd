package experiments

import (
	"context"
	"fmt"

	"bimodal/internal/dramcache"
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
		base, pred  float64
		wastedProbe int64
	}
	var cells []cell[predResult]
	for _, mix := range mixes {
		rs := o.cellSpec("bimodal", mix.Name)
		withPred := rs
		withPred.Params = spec.Params{"miss_predictor": 1}
		cells = append(cells, cell[predResult]{label: mix.Name, run: func(ctx context.Context) (predResult, error) {
			base, err := runSpec(ctx, o, rs)
			if err != nil {
				return predResult{}, err
			}
			pred, err := runSpec(ctx, o, withPred)
			if err != nil {
				return predResult{}, err
			}
			bm := pred.Scheme.(*dramcache.BiModal)
			return predResult{base.Report.AvgLatency(), pred.Report.AvgLatency(), bm.WastedProbeBytes}, nil
		}})
	}
	res, err := runCells(ctx, o, "ext-misspred", cells)
	if err != nil {
		return nil, err
	}
	var reds []float64
	for i, mix := range mixes {
		r := res[i]
		red := stats.Improvement(r.base, r.pred)
		reds = append(reds, red)
		tbl.AddRow(mix.Name,
			fmt.Sprintf("%.1f", r.base),
			fmt.Sprintf("%.1f", r.pred),
			stats.FmtPct(red),
			stats.FmtBytes(float64(r.wastedProbe)))
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
		baseHit, vicHit    float64
		baseLat, vicLat    float64
		victimHits, misses int64
	}
	var cells []cell[victimResult]
	for _, mix := range mixes {
		rs := o.cellSpec("bimodal", mix.Name)
		withVictims := rs
		withVictims.Params = spec.Params{"victim_entries": 256}
		cells = append(cells, cell[victimResult]{label: mix.Name, run: func(ctx context.Context) (victimResult, error) {
			base, err := runSpec(ctx, o, rs)
			if err != nil {
				return victimResult{}, err
			}
			vic, err := runSpec(ctx, o, withVictims)
			if err != nil {
				return victimResult{}, err
			}
			bm := vic.Scheme.(*dramcache.BiModal)
			return victimResult{
				baseHit:    base.Report.HitRate(),
				vicHit:     vic.Report.HitRate(),
				baseLat:    base.Report.AvgLatency(),
				vicLat:     vic.Report.AvgLatency(),
				victimHits: bm.VictimHits,
				misses:     vic.Report.Accesses - vic.Report.Hits,
			}, nil
		}})
	}
	res, err := runCells(ctx, o, "ext-victim", cells)
	if err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		r := res[i]
		var perMiss float64
		if r.misses > 0 {
			perMiss = float64(r.victimHits) / float64(r.misses)
		}
		tbl.AddRow(mix.Name,
			stats.FmtPct(r.baseHit),
			stats.FmtPct(r.vicHit),
			stats.FmtPct(perMiss),
			stats.FmtPct(stats.Improvement(r.baseLat, r.vicLat)))
	}
	return tbl, nil
}
