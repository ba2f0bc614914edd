package experiments

import (
	"context"
	"fmt"

	"bimodal/internal/core"
	"bimodal/internal/sram"
	"bimodal/internal/stats"
	"bimodal/internal/trace"
	"bimodal/internal/workloads"
)

// roundRobin interleaves the mix's per-core generators into one stream,
// approximating the arrival interleaving a shared DRAM cache sees.
type roundRobin struct {
	gens []trace.Generator
	next int
}

func newRoundRobin(mix workloads.Mix, seed uint64) *roundRobin {
	return &roundRobin{gens: mix.Generators(seed)}
}

func (r *roundRobin) Next() (trace.Access, int) {
	c := r.next
	r.next = (r.next + 1) % len(r.gens)
	return r.gens[c].Next(), c
}

// streamLoop replays n accesses through step, checking the context at
// coarse intervals — the functional stream studies have no cpu.Engine
// tick loop to do it for them.
func streamLoop(ctx context.Context, n int64, step func()) error {
	for i := int64(0); i < n; i++ {
		if i%8192 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		step()
	}
	return nil
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: LLSC miss rates fall with increasing block size (quad-core)",
		Run:   fig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: distribution of 512B-block utilization (quad-core)",
		Run:   fig2,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Figure 5: fraction of hits at top MRU positions, 8-way cache (8-core)",
		Run:   fig5,
	})
}

// fig1BlockSizes are the seven block sizes the paper sweeps.
var fig1BlockSizes = []uint64{64, 128, 256, 512, 1024, 2048, 4096}

// fig1 measures DRAM cache miss rate versus block size with a functional
// 8-way LRU cache of the Table IV quad-core capacity (128MB). Cells:
// (mix × block size), each with its own cache and interleaved stream.
func fig1(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	header := []string{"mix"}
	for _, b := range fig1BlockSizes {
		header = append(header, fmt.Sprintf("%dB", b))
	}
	tbl := stats.NewTable("Figure 1: miss rate vs block size", header...)
	const cacheBytes = 128 << 20

	mixes := o.mixes(4)
	var cells []cell[float64]
	for _, mix := range mixes {
		for _, block := range fig1BlockSizes {
			cells = append(cells, cell[float64]{label: fmt.Sprintf("%s %dB", mix.Name, block), run: func(ctx context.Context) (float64, error) {
				c := sram.New(sram.Config{SizeBytes: cacheBytes, BlockSize: block, Assoc: 8, Seed: o.Seed})
				rr := newRoundRobin(mix, o.Seed)
				err := streamLoop(ctx, o.StreamAccesses, func() {
					a, _ := rr.Next()
					if hit, _ := c.Access(a.Addr, a.Write); !hit {
						c.Insert(a.Addr, a.Write, 0)
					}
				})
				return 1 - c.HitRate(), err
			}})
		}
	}
	res, err := runCells(ctx, o, "fig1", cells)
	if err != nil {
		return nil, err
	}
	ratios := make([][]float64, len(fig1BlockSizes))
	for i, mix := range mixes {
		row := []string{mix.Name}
		for bi := range fig1BlockSizes {
			miss := res[i*len(fig1BlockSizes)+bi]
			ratios[bi] = append(ratios[bi], miss)
			row = append(row, fmt.Sprintf("%.3f", miss))
		}
		tbl.AddRow(row...)
	}
	avg := []string{"average"}
	for _, r := range ratios {
		avg = append(avg, fmt.Sprintf("%.3f", stats.MeanOf(r)))
	}
	tbl.AddRow(avg...)
	return tbl, nil
}

// fig2 measures, per mix, the fraction of evicted 512B blocks at each
// utilization level, using a fixed-512B cache with every set tracked.
func fig2(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	header := []string{"mix"}
	for i := 1; i <= 8; i++ {
		header = append(header, fmt.Sprintf("%d/8", i))
	}
	header = append(header, "fully-used")
	tbl := stats.NewTable("Figure 2: 512B block utilization distribution", header...)

	mixes := o.mixes(4)
	var cells []cell[*stats.Histogram]
	for _, mix := range mixes {
		cells = append(cells, cell[*stats.Histogram]{label: mix.Name, run: func(ctx context.Context) (*stats.Histogram, error) {
			p := core.DefaultParams(128 << 20)
			p.MinBig = p.MaxBig() // fixed 512B blocks
			p.SampleShift = 0     // track every set
			c := core.NewCache(p, nil)
			rr := newRoundRobin(mix, o.Seed)
			err := streamLoop(ctx, o.StreamAccesses, func() {
				a, _ := rr.Next()
				c.Access(a.Addr, a.Write)
			})
			return c.TrackerHist().Hist, err
		}})
	}
	res, err := runCells(ctx, o, "fig2", cells)
	if err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		h := res[i]
		row := []string{mix.Name}
		for b := 1; b <= 8; b++ {
			row = append(row, stats.FmtPct(h.Fraction(b)))
		}
		row = append(row, stats.FmtPct(h.Fraction(8)))
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// fig5 measures the fraction of hits at each MRU position in an 8-way
// 512B-block cache for the 8-core mixes: the observation motivating the
// top-2 way locator.
func fig5(ctx context.Context, o Options) (*stats.Table, error) {
	o = o.normalize()
	tbl := stats.NewTable("Figure 5: hits by MRU position (8-way, 512B blocks)",
		"mix", "mru0", "mru1", "mru2-3", "mru4-7", "top2")
	mixes := o.mixes(8)
	var cells []cell[*stats.Histogram]
	for _, mix := range mixes {
		cells = append(cells, cell[*stats.Histogram]{label: mix.Name, run: func(ctx context.Context) (*stats.Histogram, error) {
			c := sram.New(sram.Config{SizeBytes: 256 << 20, BlockSize: 512, Assoc: 8, Seed: o.Seed})
			hist := stats.NewHistogram(8)
			rr := newRoundRobin(mix, o.Seed)
			err := streamLoop(ctx, o.StreamAccesses, func() {
				a, _ := rr.Next()
				if pos := c.MRUIndex(a.Addr); pos >= 0 {
					hist.Add(pos)
				}
				if hit, _ := c.Access(a.Addr, a.Write); !hit {
					c.Insert(a.Addr, a.Write, 0)
				}
			})
			return hist, err
		}})
	}
	res, err := runCells(ctx, o, "fig5", cells)
	if err != nil {
		return nil, err
	}
	var top2s []float64
	for i, mix := range mixes {
		hist := res[i]
		top2 := hist.CumFraction(1)
		top2s = append(top2s, top2)
		tbl.AddRow(mix.Name,
			stats.FmtPct(hist.Fraction(0)),
			stats.FmtPct(hist.Fraction(1)),
			stats.FmtPct(hist.Fraction(2)+hist.Fraction(3)),
			stats.FmtPct(hist.CumFraction(7)-hist.CumFraction(3)),
			stats.FmtPct(top2))
	}
	tbl.AddRow("average", "", "", "", "", stats.FmtPct(stats.MeanOf(top2s)))
	return tbl, nil
}
