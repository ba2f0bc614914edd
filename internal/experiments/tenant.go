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

// qos is a multi-tenant run's QoS numbers: tenant ANTT and the worst
// tenant's slowdown.
type qos struct{ antt, worst float64 }

// tenantQoS projects a multi-tenant run result onto its QoS numbers.
func tenantQoS(res sim.RunResult) qos {
	shares := make([]stats.TenantShare, len(res.PerTenant))
	for i, t := range res.PerTenant {
		shares[i] = stats.TenantShare{Accesses: t.Accesses, Reads: t.Reads, Hits: t.Hits, LatencySum: t.LatencySum}
	}
	slow, antt := stats.TenantSlowdowns(shares)
	q := qos{antt: antt}
	for _, s := range slow {
		if s > q.worst {
			q.worst = s
		}
	}
	return q
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
	b := batch[qos]{keep: tenantQoS}
	for _, mix := range mixes {
		b.add(mix.Name+" bimodal", o.cellSpec("bimodal", mix.Name))
		b.add(mix.Name+" alloy", o.cellSpec(reference, mix.Name))
	}
	res, err := b.run(ctx, o, "ext-tenant")
	if err != nil {
		return nil, err
	}
	var gains []float64
	for i, mix := range mixes {
		bm, al := res[2*i], res[2*i+1]
		gain := stats.Improvement(al.antt, bm.antt)
		gains = append(gains, gain)
		tbl.AddRow(mix.Name,
			fmt.Sprint(len(mix.Traffic.Tenants)),
			fmt.Sprintf("%.3f", bm.antt),
			fmt.Sprintf("%.3f", al.antt),
			fmt.Sprintf("%.3f", bm.worst),
			fmt.Sprintf("%.3f", al.worst),
			stats.FmtPct(gain))
	}
	tbl.AddRow("average", "", "", "", "", "", stats.FmtPct(stats.MeanOf(gains)))
	return tbl, nil
}
