package trace

import (
	"bimodal/internal/sram"
)

// LLSCFilter models the last-level SRAM cache (LLSC) standing between the
// cores and the DRAM cache (Table IV: 4/8/16MB shared L2). It consumes a
// raw access stream and emits exactly the traffic a DRAM cache sees:
//
//   - LLSC misses become read fills (Write = false; the store that caused
//     a write miss dirties the line inside the LLSC, not the DRAM cache);
//   - dirty LLSC evictions become writebacks (Write = true).
//
// Instruction gaps of filtered (hit) accesses accumulate onto the next
// emitted access so the downstream timing still sees the correct
// instruction counts. Dependence flags are preserved on misses.
type LLSCFilter struct {
	src   Generator
	cache *sram.Cache

	pendingGap uint64
	queue      []Access

	// Accesses and Misses count raw traffic for miss-rate reporting.
	Accesses int64
	Misses   int64
}

// NewLLSCFilter wraps src with an LRU LLSC of the given size and
// associativity.
func NewLLSCFilter(src Generator, sizeBytes uint64, assoc int) *LLSCFilter {
	return &LLSCFilter{src: src, cache: sram.New(sram.Config{SizeBytes: sizeBytes, BlockSize: LineBytes, Assoc: assoc})}
}

// Name implements Generator.
func (f *LLSCFilter) Name() string { return f.src.Name() + "+llsc" }

// Reset implements Generator: the wrapped source is reset with the same
// seed (so a filter constructed over a seed-matched source round-trips),
// the LLSC is emptied, and the filter state and counters clear.
func (f *LLSCFilter) Reset(seed uint64) {
	f.src.Reset(seed)
	f.cache.Reset()
	f.pendingGap = 0
	f.queue = f.queue[:0]
	f.Accesses = 0
	f.Misses = 0
}

// MissRate returns the LLSC miss rate observed so far.
func (f *LLSCFilter) MissRate() float64 {
	if f.Accesses == 0 {
		return 0
	}
	return float64(f.Misses) / float64(f.Accesses)
}

// Next implements Generator, producing the next DRAM-cache-level access.
func (f *LLSCFilter) Next() Access {
	for {
		if len(f.queue) > 0 {
			a := f.queue[0]
			f.queue = f.queue[1:]
			return a
		}
		raw := f.src.Next()
		f.Accesses++
		f.pendingGap += uint64(raw.Gap)
		line := raw.Addr.Line64()
		if hit, _ := f.cache.Access(line, raw.Write); hit {
			continue
		}
		f.Misses++
		victim := f.cache.Insert(line, raw.Write, 0)
		gap := f.pendingGap
		if gap > 1<<31 {
			gap = 1 << 31
		}
		f.pendingGap = 0
		// The miss fill reaches the DRAM cache first; a dirty victim's
		// writeback follows immediately (gap 0).
		if victim.Valid && victim.Dirty {
			// The writeback is attributed to the tenant whose miss evicted
			// the line (the victim's original owner is not tracked).
			f.queue = append(f.queue, Access{Addr: victim.Addr, Write: true, Gap: 0, Tenant: raw.Tenant})
		}
		return Access{Addr: line, Write: false, Gap: uint32(gap), Dep: raw.Dep, Tenant: raw.Tenant}
	}
}
