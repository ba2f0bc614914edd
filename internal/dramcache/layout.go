package dramcache

import (
	"math/bits"

	"bimodal/internal/addr"
	"bimodal/internal/core"
)

// fastDiv performs division by a fixed divisor with one 64x64->128
// multiply instead of a hardware divide (Lemire's method): with
// m = floor(2^64/d)+1, hi(m*n) equals n/d exactly for every n < 2^32.
// The mapping functions below divide set indices, row-group indices and
// byte columns — all bounded far below 2^32 — and they dominate the
// scheme access path, where the three data-dependent divides per mapping
// showed up directly in profiles. divmod falls back to plain division
// for out-of-range dividends, so the result is always exact.
type fastDiv struct {
	d uint64
	m uint64
}

func newFastDiv(d uint64) fastDiv {
	if d == 0 {
		panic("dramcache: fastDiv by zero")
	}
	return fastDiv{d: d, m: ^uint64(0)/d + 1}
}

func (f fastDiv) divmod(n uint64) (q, r uint64) {
	if f.d == 1 { // m overflowed to 0; n/1 needs no multiply anyway
		return n, 0
	}
	if n >= 1<<32 {
		return n / f.d, n % f.d
	}
	q, _ = bits.Mul64(f.m, n)
	return q, n - q*f.d
}

// setLayout maps cache sets onto the stacked DRAM geometry.
//
// With separate metadata (the paper's design, Figure 4), bank 0 of every
// channel is the metadata bank and banks 1..B-1 hold data; the metadata
// for the sets whose data lives on channel c is stored in the metadata
// bank of channel (c+1) mod C, enabling concurrent tag and data access.
//
// With co-located metadata (the Figure 9b baseline), tags share the data
// row: a metadata access goes to the same bank and row as the data, so it
// competes for — and measures the row-buffer behaviour of — the data banks.
type setLayout struct {
	channels     int
	banks        int // banks per channel
	pageBytes    uint64
	setBytes     uint64
	rowsPerSet   uint64 // sets larger than a DRAM page span consecutive rows
	metaBytes    int64  // metadata bytes per set (burst aligned)
	metaPerRow   uint64 // set-metadata records per DRAM page
	db           uint64 // data banks per channel
	separateMeta bool
	// Precomputed fast dividers for the per-access mapping math.
	chDiv fastDiv // by channels
	dbDiv fastDiv // by db
	pgDiv fastDiv // by pageBytes
	prDiv fastDiv // by metaPerRow
}

func newSetLayout(channels, banksPerChannel int, pageBytes uint64, p core.Params, separate bool) setLayout {
	rows := (p.SetBytes + pageBytes - 1) / pageBytes
	l := setLayout{
		channels:     channels,
		banks:        banksPerChannel,
		pageBytes:    pageBytes,
		setBytes:     p.SetBytes,
		rowsPerSet:   rows,
		metaBytes:    p.MetadataBytesPerSet(),
		separateMeta: separate,
	}
	l.metaPerRow = uint64(int64(pageBytes) / l.metaBytes)
	l.db = uint64(l.dataBanks())
	l.chDiv = newFastDiv(uint64(channels))
	l.dbDiv = newFastDiv(l.db)
	l.pgDiv = newFastDiv(pageBytes)
	l.prDiv = newFastDiv(l.metaPerRow)
	return l
}

// dataBanks returns the number of banks per channel available for data.
func (l *setLayout) dataBanks() int {
	if l.separateMeta {
		return l.banks - 1
	}
	return l.banks
}

// dataLoc returns the DRAM location of the given byte column of a set's
// data. Sets no larger than a DRAM page occupy one row; the 4KB-set
// configurations of the Figure 12 sensitivity study span two consecutive
// rows of the same bank (the extra-activation cost the paper's footnote 6
// avoids in its main configuration is thus modeled faithfully).
func (l *setLayout) dataLoc(set uint64, column uint64) addr.Location {
	idx, ch := l.chDiv.divmod(set)
	rowGroup, bank64 := l.dbDiv.divmod(idx)
	bank := int(bank64)
	if l.separateMeta {
		bank++ // bank 0 is the metadata bank
	}
	rowOff, col := l.pgDiv.divmod(column)
	return addr.Location{
		Channel: int(ch),
		Bank:    bank,
		Row:     rowGroup*l.rowsPerSet + rowOff,
		Column:  col,
	}
}

// metaLoc returns the DRAM location of a set's metadata.
func (l *setLayout) metaLoc(set uint64) addr.Location {
	if !l.separateMeta {
		// Tags share the data row (column position after the data is a
		// modelling simplification: what matters is bank/row identity).
		return l.dataLoc(set, 0)
	}
	idx, ch64 := l.chDiv.divmod(set)
	mch := int(ch64) + 1
	if mch == l.channels {
		mch = 0
	}
	row, rec := l.prDiv.divmod(idx)
	return addr.Location{
		Channel: mch,
		Bank:    0,
		Row:     row,
		Column:  rec * uint64(l.metaBytes),
	}
}
