// Package trace defines the access-stream model consumed by the simulator
// and the synthetic benchmark generators that stand in for the paper's SPEC
// 2000/2006 traces.
//
// The paper drives its DRAM-cache studies with traces of last-level SRAM
// cache (LLSC) misses collected from GEM5. We do not have those traces, so
// each benchmark is modeled as an episode-based address-stream generator
// whose knobs map directly onto the stream statistics the paper's results
// depend on:
//
//   - page popularity skew (Zipf)       -> DRAM cache hit rate vs capacity
//   - sequential/strided/random episode  -> spatial utilization of 512B
//     mix and run lengths                  blocks (Figure 2), miss rate vs
//     block size (Figure 1)
//   - instruction gap distribution       -> memory intensity (Table V)
//   - dependence fraction                -> memory-level parallelism
//   - write fraction                     -> writeback traffic
//
// Generation is decomposed into a composable traffic-model pipeline:
//
//   - the address process (address.go) selects episode pages and
//     synthesizes the seq/stride/chase/random episode kinds;
//   - the arrival process (arrival.go) spaces accesses in instruction
//     time — steady exponential gaps or bursty ON/OFF phases;
//   - the tenant interleaver (traffic.go) weaves N per-tenant streams,
//     with optional shared-hot-page overlap, into one stream and tags
//     each Access with its tenant ID.
//
// Synthetic composes an address process with an arrival process over one
// shared rng; Interleaver composes Synthetics. Generators are
// deterministic given a seed.
package trace

import (
	"fmt"

	"bimodal/internal/addr"
)

// LineBytes is the CPU cache line size; every access in a trace is one
// 64-byte line (an LLSC miss granule).
const LineBytes = 64

// PageBytes is the granularity of the synthetic footprint model (a 4KB
// OS-page-sized region; distinct from DRAM row "pages").
const PageBytes = 4096

// LinesPerPage is the number of 64B lines per footprint page.
const LinesPerPage = PageBytes / LineBytes

// Access is one memory access presented to the DRAM cache. The fields are
// ordered widest first so the struct packs into 16 bytes (TestAccessSize);
// codecs encode them by name, so the order is not part of any format.
type Access struct {
	// Addr is the physical address of the 64B line.
	Addr addr.Phys
	// Gap is the number of instructions executed since the previous
	// access of the same core.
	Gap uint32
	// Write marks a write (an LLSC writeback or store miss).
	Write bool
	// Dep marks the access as data-dependent on the previous one
	// (pointer-chase): the core cannot overlap it with the previous miss.
	Dep bool
	// Tenant identifies the tenant stream the access belongs to in a
	// multi-tenant interleave (0 for single-tenant generators). The cpu
	// engine attributes issue and latency per tenant through this tag.
	Tenant uint8
}

// Generator produces an infinite access stream.
type Generator interface {
	// Next returns the next access.
	Next() Access
	// Name identifies the stream (benchmark name).
	Name() string
	// Reset returns the generator to the exact state a freshly
	// constructed instance with the same configuration and the given
	// seed would have, reusing internal buffers: after Reset(s) the
	// generator replays byte for byte the stream a fresh generator
	// seeded with s would produce. Generators whose stream is
	// seed-independent (fixed replays such as SliceGen and Reader)
	// rewind to the beginning and must still satisfy the contract —
	// their freshly-constructed state is the same for every seed.
	Reset(seed uint64)
}

// Filler is implemented by generators that can hand out a run of accesses
// in one call. Fill(buf) is exactly len(buf) Next calls: buf[i] receives
// the access the i-th call would return, and the generator ends where those
// calls would leave it. Fill may run on a goroutine other than the one that
// calls Next, but never at the same time as another call on the same
// generator; the caller orders them (the cpu engine with a sync.WaitGroup).
// A generator whose state is shared with another generator must not
// implement Filler.
type Filler interface {
	Fill(buf []Access)
}

// SliceGen replays a fixed slice, cycling; useful in tests.
type SliceGen struct {
	// Accs and Lab define the replayed stream; Reset rewinds the cursor
	// without touching them, and restore validates the slice length rather
	// than deserializing the accesses.
	Accs []Access //bmlint:resetconst //bmlint:nosnapshot
	Lab  string   //bmlint:resetconst //bmlint:nosnapshot
	pos  int
}

// Next implements Generator.
//
//bmlint:hotpath
func (s *SliceGen) Next() Access {
	if len(s.Accs) == 0 {
		return Access{}
	}
	a := s.Accs[s.pos]
	s.pos = (s.pos + 1) % len(s.Accs)
	return a
}

// Name implements Generator.
func (s *SliceGen) Name() string { return s.Lab }

// Reset implements Generator. A fresh SliceGen replays the same fixed
// slice for every seed, so rewinding the cursor is exactly the
// fresh-construction state the contract requires; the seed changes
// nothing by design, not by omission.
func (s *SliceGen) Reset(seed uint64) { s.pos = 0 }

// Profile parameterizes a synthetic benchmark.
type Profile struct {
	// Name is the SPEC-like benchmark name.
	Name string
	// FootprintPages is the working footprint in 4KB pages; must be a
	// power of two (the page permutation relies on it).
	FootprintPages uint64
	// ZipfS is the page-popularity skew (0 = uniform).
	ZipfS float64
	// SeqFrac / StrideFrac / PointerFrac select episode kinds; the
	// remainder is single random lines. Must sum to <= 1.
	SeqFrac     float64
	StrideFrac  float64
	PointerFrac float64
	// RunLines is the mean sequential episode length in 64B lines.
	RunLines int
	// Stride is the line stride for strided episodes (>= 2).
	Stride int
	// ChaseLen is the mean dependent-chain length for pointer episodes.
	ChaseLen int
	// WriteFrac is the per-access write probability.
	WriteFrac float64
	// GapMean is the mean instruction gap between accesses; smaller means
	// more memory-intensive.
	GapMean int
	// BurstLen selects bursty ON/OFF arrivals when positive: accesses
	// arrive in ON bursts of this mean length separated by OFF periods
	// (datacenter request batching). 0 keeps steady arrivals.
	BurstLen int
	// BurstIdleGap is the mean instruction length of the OFF period
	// between bursts; required when BurstLen is set.
	BurstIdleGap int
	// RevisitFrac is the probability that an episode revisits a recently
	// touched page instead of drawing a fresh one — the loop-level
	// temporal reuse real programs exhibit within any trace window.
	RevisitFrac float64
	// RevisitWindow is the size of the recent-page history (default 64).
	RevisitWindow int
	// Intensity is a coarse label used by the workload tables.
	Intensity string
}

// Validate reports a configuration error.
func (p Profile) Validate() error {
	switch {
	case p.FootprintPages == 0 || !addr.IsPow2(p.FootprintPages):
		return fmt.Errorf("trace: %s footprint %d pages must be a power of two", p.Name, p.FootprintPages)
	case p.SeqFrac+p.StrideFrac+p.PointerFrac > 1+1e-9:
		return fmt.Errorf("trace: %s episode fractions sum > 1", p.Name)
	case p.SeqFrac > 0 && p.RunLines <= 0:
		return fmt.Errorf("trace: %s sequential episodes need RunLines > 0", p.Name)
	case p.StrideFrac > 0 && p.Stride < 2:
		return fmt.Errorf("trace: %s strided episodes need Stride >= 2", p.Name)
	case p.GapMean <= 0:
		return fmt.Errorf("trace: %s GapMean must be positive", p.Name)
	case p.BurstLen < 0 || p.BurstIdleGap < 0:
		return fmt.Errorf("trace: %s burst knobs must not be negative", p.Name)
	case p.BurstLen > 0 && p.BurstIdleGap <= 0:
		return fmt.Errorf("trace: %s bursty arrivals need BurstIdleGap > 0", p.Name)
	case p.RevisitFrac < 0 || p.RevisitFrac > 1:
		return fmt.Errorf("trace: %s RevisitFrac out of [0,1]", p.Name)
	}
	return nil
}

// FootprintBytes returns the benchmark footprint in bytes.
func (p Profile) FootprintBytes() uint64 { return p.FootprintPages * PageBytes }

// Collect drains n accesses from gen into a slice (test/analysis helper).
func Collect(gen Generator, n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = gen.Next()
	}
	return out
}
