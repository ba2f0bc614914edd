package experiments

import (
	"context"
	"fmt"

	"bimodal/internal/sim"
	"bimodal/internal/stats"
	"bimodal/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "ext-tenant",
		Title: "Extension: per-tenant slowdown under datacenter consolidation (quad-core)",
		Run:   extTenant,
	})
}

// tenantQoS projects a multi-tenant run result onto its QoS numbers:
// tenant ANTT and the worst tenant's slowdown.
func tenantQoS(res sim.RunResult) (antt, worst float64) {
	shares := make([]stats.TenantShare, len(res.PerTenant))
	for i, t := range res.PerTenant {
		shares[i] = stats.TenantShare{Accesses: t.Accesses, Reads: t.Reads, Hits: t.Hits, LatencySum: t.LatencySum}
	}
	slow, antt := stats.TenantSlowdowns(shares)
	for _, s := range slow {
		if s > worst {
			worst = s
		}
	}
	return antt, worst
}

// extTenant measures how a shared DRAM cache arbitrates consolidated
// datacenter tenants: each traffic mix interleaves weighted tenant
// streams with a shared hot region, and the per-tenant attribution path
// yields each tenant's slowdown relative to the best-served tenant.
// BiModal's higher hit rate should shrink both tenant ANTT and the worst
// tenant's penalty versus the Alloy baseline.
func extTenant(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	mixes := workloads.DatacenterMixes()
	if o.MaxMixes > 0 && len(mixes) > o.MaxMixes {
		mixes = mixes[:o.MaxMixes]
	}
	tbl := stats.NewTable("Extension: tenant QoS on datacenter mixes (quad-core)",
		"mix", "tenants", "BiModal ANTT", "Alloy ANTT", "BiModal worst", "Alloy worst", "ANTT gain")
	type tenantResult struct {
		bmANTT, bmWorst float64
		alANTT, alWorst float64
	}
	var cells []cell[tenantResult]
	for _, mix := range mixes {
		bmSpec, alSpec := o.cellSpec("bimodal", mix.Name), o.cellSpec(reference, mix.Name)
		cells = append(cells, cell[tenantResult]{label: mix.Name, run: func(ctx context.Context) (tenantResult, error) {
			bm, err := runSpec(ctx, o, bmSpec)
			if err != nil {
				return tenantResult{}, err
			}
			al, err := runSpec(ctx, o, alSpec)
			if err != nil {
				return tenantResult{}, err
			}
			var r tenantResult
			r.bmANTT, r.bmWorst = tenantQoS(bm)
			r.alANTT, r.alWorst = tenantQoS(al)
			return r, nil
		}})
	}
	res, err := runCells(ctx, o, "ext-tenant", cells)
	if err != nil {
		return nil, err
	}
	var gains []float64
	for i, mix := range mixes {
		r := res[i]
		gain := stats.Improvement(r.alANTT, r.bmANTT)
		gains = append(gains, gain)
		tbl.AddRow(mix.Name,
			fmt.Sprint(len(mix.Traffic.Tenants)),
			fmt.Sprintf("%.3f", r.bmANTT),
			fmt.Sprintf("%.3f", r.alANTT),
			fmt.Sprintf("%.3f", r.bmWorst),
			fmt.Sprintf("%.3f", r.alWorst),
			stats.FmtPct(gain))
	}
	tbl.AddRow("average", "", "", "", "", "", stats.FmtPct(stats.MeanOf(gains)))
	return tbl, nil
}
