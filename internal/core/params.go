// Package core implements the paper's primary contribution: the Bi-Modal
// DRAM cache organization. It contains the bi-modal set state machine with
// Table II's replacement rules, the set data/metadata layout, the SRAM Way
// Locator, the block size predictor (set-sampled utilization tracker plus a
// table of 2-bit saturating counters) and the cache-wide (X_glob, Y_glob)
// adaptation logic.
//
// The package is purely functional: it tracks which blocks are where and
// what must be fetched or written back, and exposes enough placement
// information (way numbers, column addresses, metadata burst counts) for a
// timing layer (internal/dramcache) to schedule DRAM operations.
package core

import (
	"fmt"

	"bimodal/internal/addr"
)

// SmallBlock is the small block size in bytes (one LLSC line).
const SmallBlock = 64

// Params configures a Bi-Modal cache.
type Params struct {
	// CacheBytes is the total data capacity (e.g. 128MB).
	CacheBytes uint64
	// SetBytes is the set size; a set's data occupies one DRAM page
	// (2048 in the paper's main configuration).
	SetBytes uint64
	// BigBlock is the big block size in bytes (512 in the paper; 256 and
	// 1024 in the Figure 12 sensitivity study).
	BigBlock uint64
	// MinBig is the minimum number of big ways a set may hold; it bounds
	// the maximum associativity. The paper's 2KB sets allow states
	// (4,0),(3,8),(2,16), i.e. MinBig = MaxBig/2.
	MinBig int
	// PredictorBits is P: the size-predictor table has 2^P 2-bit counters.
	PredictorBits uint
	// Threshold is T: a tracked way whose utilization bit count is >= T is
	// classified big (5 in the paper, max = sub-blocks per big block).
	Threshold int
	// SampleShift: sets whose index has its low SampleShift bits zero are
	// sampled by the tracker (5 -> 1/32 of sets ~ the paper's "about 4%").
	SampleShift uint
	// AdaptInterval is the number of cache accesses between global state
	// updates (1M in the paper).
	AdaptInterval int64
	// Weight is W in R = W * Dsmall/Dbig (0.75 in the paper).
	Weight float64
	// Seed feeds the replacement randomness.
	Seed uint64
}

// DefaultParams returns the paper's main configuration for a cache of the
// given size.
func DefaultParams(cacheBytes uint64) Params {
	return Params{
		CacheBytes:    cacheBytes,
		SetBytes:      2048,
		BigBlock:      512,
		MinBig:        2,
		PredictorBits: 16,
		Threshold:     5,
		SampleShift:   5,
		AdaptInterval: 1_000_000,
		Weight:        0.75,
		Seed:          1,
	}
}

// Validate reports a configuration error.
func (p Params) Validate() error {
	switch {
	case p.CacheBytes == 0 || !addr.IsPow2(p.CacheBytes):
		return fmt.Errorf("core: CacheBytes %d must be a power of two", p.CacheBytes)
	case p.SetBytes == 0 || !addr.IsPow2(p.SetBytes):
		return fmt.Errorf("core: SetBytes %d must be a power of two", p.SetBytes)
	case p.BigBlock == 0 || !addr.IsPow2(p.BigBlock) || p.BigBlock <= SmallBlock:
		return fmt.Errorf("core: BigBlock %d must be a power of two > %d", p.BigBlock, SmallBlock)
	case p.BigBlock > p.SetBytes:
		return fmt.Errorf("core: BigBlock %d exceeds SetBytes %d", p.BigBlock, p.SetBytes)
	case p.BigBlock/SmallBlock > 32:
		return fmt.Errorf("core: BigBlock %d has more than 32 sub-blocks", p.BigBlock)
	case p.MinBig < 0 || p.MinBig > int(p.SetBytes/p.BigBlock):
		return fmt.Errorf("core: MinBig %d out of range", p.MinBig)
	case p.MaxBig() > 32:
		return fmt.Errorf("core: %d big ways exceed the 32 a set's occupancy mask tracks", p.MaxBig())
	case p.MaxSmall() > 32:
		return fmt.Errorf("core: %d small ways exceed the 32 a set's occupancy mask tracks", p.MaxSmall())
	case p.Threshold <= 0 || p.Threshold > int(p.BigBlock/SmallBlock):
		return fmt.Errorf("core: Threshold %d out of range", p.Threshold)
	case p.PredictorBits == 0 || p.PredictorBits > 24:
		return fmt.Errorf("core: PredictorBits %d out of range", p.PredictorBits)
	case p.AdaptInterval <= 0:
		return fmt.Errorf("core: AdaptInterval must be positive")
	case p.Weight <= 0:
		return fmt.Errorf("core: Weight must be positive")
	}
	return nil
}

// MaxBig returns the number of big ways in the all-big state.
func (p Params) MaxBig() int { return int(p.SetBytes / p.BigBlock) }

// SubBlocks returns the number of 64B sub-blocks per big block.
func (p Params) SubBlocks() int { return int(p.BigBlock / SmallBlock) }

// NumSets returns the set count.
func (p Params) NumSets() uint64 { return p.CacheBytes / p.SetBytes }

// MaxAssoc returns the maximum set associativity (the all-small-capable
// state): MinBig big ways plus the converted slots as small ways. For the
// paper's 2KB sets this is 2 + 2*8 = 18.
func (p Params) MaxAssoc() int {
	return p.MinBig + (p.MaxBig()-p.MinBig)*p.SubBlocks()
}

// MaxSmall returns the maximum number of small ways per set.
func (p Params) MaxSmall() int { return (p.MaxBig() - p.MinBig) * p.SubBlocks() }

// TagBurstsPerSet returns how many 64B metadata bursts are needed to read
// all of a set's tags: the paper's <=18-way sets need 2 bursts, 4KB sets
// (<=36-way) need 3.
func (p Params) TagBurstsPerSet() int64 {
	// 4 bytes of metadata per way plus a couple of bytes of set state,
	// rounded up to 64B bursts; minimum 1.
	bytes := 4*p.MaxAssoc() + 2
	return int64((bytes + SmallBlock - 1) / SmallBlock)
}

// MetadataBytesPerSet returns the metadata footprint of one set, rounded to
// burst granularity so sets pack evenly into metadata rows.
func (p Params) MetadataBytesPerSet() int64 { return p.TagBurstsPerSet() * SmallBlock }

// State is a bi-modal set state (X big ways, Y small ways).
type State struct {
	X int
	Y int
}

// String renders "(X,Y)".
func (s State) String() string { return fmt.Sprintf("(%d,%d)", s.X, s.Y) }

// Assoc returns the total way count X+Y.
func (s State) Assoc() int { return s.X + s.Y }

// AllowedStates enumerates the legal states for the parameters, from
// all-big to max-small, e.g. {(4,0),(3,8),(2,16)} for 2KB sets and 512B
// big blocks.
func (p Params) AllowedStates() []State {
	var out []State
	for x := p.MaxBig(); x >= p.MinBig; x-- {
		out = append(out, State{X: x, Y: (p.MaxBig() - x) * p.SubBlocks()})
	}
	return out
}

// stateValid reports whether s is one of the allowed states.
func (p Params) stateValid(s State) bool {
	if s.X < p.MinBig || s.X > p.MaxBig() {
		return false
	}
	return s.Y == (p.MaxBig()-s.X)*p.SubBlocks()
}

// BigColumn returns the byte column within the set's DRAM page where big
// way w starts (big ways are numbered left to right from column 0).
func (p Params) BigColumn(w int) uint64 { return uint64(w) * p.BigBlock }

// SmallColumn returns the byte column within the set's DRAM page where
// small way w starts (small ways are numbered right to left from the last
// column of the page).
func (p Params) SmallColumn(w int) uint64 { return p.SetBytes - uint64(w+1)*SmallBlock }
