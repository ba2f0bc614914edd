// Package addr models physical addresses and the address-interleaving
// schemes used by the Bi-Modal DRAM cache simulator.
//
// The simulated machine uses a 40-bit physical address space (Table IV of
// the paper sizes main memory at 4–16 GB). Addresses are carried as uint64.
// Helpers extract cache fields (offset / set index / tag) for an arbitrary
// block size, and map addresses onto DRAM geometry (channel, rank-major
// bank, row, column) using the paper's row-rank-bank-mc-column
// interleaving.
package addr

import "fmt"

// Phys is a physical byte address.
type Phys uint64

// Bits is the width of the simulated physical address space.
const Bits = 40

// Mask keeps an address within the simulated physical address space.
const Mask = (Phys(1) << Bits) - 1

// Line64 returns the address truncated to its 64-byte line.
func (p Phys) Line64() Phys { return p &^ 63 }

// Block returns the address truncated to a block of the given size, which
// must be a power of two.
func (p Phys) Block(size uint64) Phys { return p &^ Phys(size-1) }

// Log2 returns floor(log2(v)). It panics if v is zero.
func Log2(v uint64) uint {
	if v == 0 {
		panic("addr: Log2 of zero")
	}
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// IsPow2 reports whether v is a power of two.
func IsPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// Fields splits addresses into (tag, set, offset) for a set-indexed cache.
// The split is computed once at construction so per-access extraction is a
// couple of shifts.
type Fields struct {
	offsetBits uint
	setBits    uint
	blockSize  uint64
	numSets    uint64
}

// NewFields builds a splitter for a cache with the given block size (bytes,
// power of two) and number of sets (power of two).
func NewFields(blockSize, numSets uint64) Fields {
	if !IsPow2(blockSize) || !IsPow2(numSets) {
		panic(fmt.Sprintf("addr: blockSize %d and numSets %d must be powers of two", blockSize, numSets))
	}
	return Fields{
		offsetBits: Log2(blockSize),
		setBits:    Log2(numSets),
		blockSize:  blockSize,
		numSets:    numSets,
	}
}

// BlockSize returns the block size in bytes.
func (f Fields) BlockSize() uint64 { return f.blockSize }

// NumSets returns the number of sets.
func (f Fields) NumSets() uint64 { return f.numSets }

// OffsetBits returns the number of block-offset bits.
func (f Fields) OffsetBits() uint { return f.offsetBits }

// SetBits returns the number of set-index bits.
func (f Fields) SetBits() uint { return f.setBits }

// Set returns the set index of p.
func (f Fields) Set(p Phys) uint64 {
	return (uint64(p) >> f.offsetBits) & (f.numSets - 1)
}

// Tag returns the tag of p (the address bits above offset and set index).
func (f Fields) Tag(p Phys) uint64 {
	return uint64(p) >> (f.offsetBits + f.setBits)
}

// Offset returns the block offset of p.
func (f Fields) Offset(p Phys) uint64 {
	return uint64(p) & (f.blockSize - 1)
}

// BlockID returns a unique identifier for the block containing p (the
// address with offset bits stripped), convenient as a map key.
func (f Fields) BlockID(p Phys) uint64 { return uint64(p) >> f.offsetBits }

// Rebuild reconstructs the base address of a block from tag and set index.
func (f Fields) Rebuild(tag, set uint64) Phys {
	return Phys(tag<<(f.offsetBits+f.setBits) | set<<f.offsetBits)
}

// Geometry describes a DRAM address mapping: how many channels, ranks per
// channel, banks per rank, rows per bank and the page (row) size in bytes.
type Geometry struct {
	Channels    int
	Ranks       int
	BanksPerRnk int
	PageBytes   uint64
}

// Banks returns the total number of banks per channel.
func (g Geometry) Banks() int { return g.Ranks * g.BanksPerRnk }

// TotalBanks returns the number of banks across all channels.
func (g Geometry) TotalBanks() int { return g.Channels * g.Banks() }

// Location identifies a DRAM cell group: a row within a bank within a
// channel, plus the column (byte offset within the row). Bank is
// rank-major across the channel's ranks, rank*BanksPerRnk plus the bank
// within the rank, so it indexes a flat per-channel bank array directly.
//
// A Location is passed by value on every DRAM access. It keeps to four
// fields and 32 bytes, the most the Go compiler's SSA backend keeps in
// registers; a larger struct is spilled to the stack and block-copied at
// each call (TestLocationShape).
type Location struct {
	Channel int
	Bank    int
	Row     uint64
	Column  uint64
}

// Rank returns the rank of a rank-major bank index.
func (g Geometry) Rank(bank int) int { return bank / g.BanksPerRnk }

// Interleave maps physical addresses to DRAM locations using the paper's
// row-rank-bank-mc-column order (Table IV): the column bits are least
// significant, then the channel (mc) bits, then bank, then rank, then row.
// This spreads consecutive pages across channels and banks, which is what
// gives open-page scheduling its row-buffer locality.
type Interleave struct {
	g        Geometry
	colBits  uint
	chanBits uint
	bankBits uint
	rankBits uint
}

// NewInterleave builds an interleaver for the geometry. Channel, rank and
// bank counts and the page size must be powers of two.
func NewInterleave(g Geometry) Interleave {
	for _, v := range []uint64{uint64(g.Channels), uint64(g.Ranks), uint64(g.BanksPerRnk), g.PageBytes} {
		if !IsPow2(v) {
			panic(fmt.Sprintf("addr: geometry values must be powers of two: %+v", g))
		}
	}
	return Interleave{
		g:        g,
		colBits:  Log2(g.PageBytes),
		chanBits: Log2(uint64(g.Channels)),
		bankBits: Log2(uint64(g.BanksPerRnk)),
		rankBits: Log2(uint64(g.Ranks)),
	}
}

// Geometry returns the geometry this interleaver was built for.
func (il Interleave) Geometry() Geometry { return il.g }

// Map returns the DRAM location of physical address p.
func (il Interleave) Map(p Phys) Location {
	v := uint64(p)
	col := v & (il.g.PageBytes - 1)
	v >>= il.colBits
	ch := v & (uint64(il.g.Channels) - 1)
	v >>= il.chanBits
	// The rank bits sit directly above the bank bits, so together they
	// are the rank-major bank index.
	bank := v & (uint64(il.g.Banks()) - 1)
	v >>= il.bankBits + il.rankBits
	return Location{
		Channel: int(ch),
		Bank:    int(bank),
		Row:     v,
		Column:  col,
	}
}

// Unmap is the inverse of Map; it reconstructs the physical address of a
// location. Useful in tests and for synthesizing conflict streams.
func (il Interleave) Unmap(l Location) Phys {
	v := l.Row
	v = v<<(il.rankBits+il.bankBits) | uint64(l.Bank)
	v = v<<il.chanBits | uint64(l.Channel)
	v = v<<il.colBits | l.Column
	return Phys(v)
}
