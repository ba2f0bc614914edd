package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file gives the metadata bank a concrete byte-level layout (Figure 4
// of the paper): for each set, the state (X, Y) followed by the big ways'
// tag words followed by the small ways' tag words. The timing layer only
// needs metadata *sizes* (TagBurstsPerSet), but encoding the real bits
// pins down that the claimed sizes are achievable and provides the
// serialization a checkpointing or hardware-modeling user would need.
//
// Each way is a 4-byte word (the paper's assumed per-block metadata):
//
//	big way:   [valid:1][dirty mask:8][tag:23]           (512B blocks)
//	small way: [valid:1][dirty:1][offset:3][tag:27-ish]  (64B lines)
//
// The 40-bit address space with >=64MB caches leaves tags comfortably
// within these widths; Encode checks and reports overflow explicitly.

// SetMetadata is the decoded metadata of one set.
type SetMetadata struct {
	State State
	// Big holds MaxBig entries (entries at index >= State.X must be
	// invalid); Small likewise with MaxSmall entries.
	Big   []BigWayMeta
	Small []SmallWayMeta
}

// BigWayMeta is one big way's metadata word.
type BigWayMeta struct {
	Valid bool
	Tag   uint64
	Dirty uint32 // one bit per 64B sub-block
}

// SmallWayMeta is one small way's metadata word.
type SmallWayMeta struct {
	Valid bool
	Dirty bool
	// Offset is the high-order block-offset bits identifying which 64B
	// line of the big-block-aligned region this way holds (3 bits for
	// 512B big blocks).
	Offset uint8
	Tag    uint64
}

// MetadataCodec encodes and decodes per-set metadata to the byte layout
// stored in the metadata bank.
type MetadataCodec struct {
	params Params
	// widths derived from the configuration
	bigTagBits   uint
	smallTagBits uint
	offsetBits   uint
}

// NewMetadataCodec builds a codec for the cache parameters over a machine
// with memBits of physical address space.
func NewMetadataCodec(p Params, memBits uint) (*MetadataCodec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	blockBits := uint(0)
	for v := p.BigBlock; v > 1; v >>= 1 {
		blockBits++
	}
	setBits := uint(0)
	for v := p.NumSets(); v > 1; v >>= 1 {
		setBits++
	}
	if memBits <= blockBits+setBits {
		return nil, fmt.Errorf("core: address space %d bits too small for %d set bits", memBits, setBits)
	}
	offsetBits := blockBits - 6 // 64B lines per big block
	c := &MetadataCodec{
		params:       p,
		bigTagBits:   memBits - blockBits - setBits,
		smallTagBits: memBits - blockBits - setBits,
		offsetBits:   offsetBits,
	}
	sub := uint(p.SubBlocks())
	if 1+sub+c.bigTagBits > 32 {
		return nil, fmt.Errorf("core: big way word overflows 32 bits (1+%d+%d)", sub, c.bigTagBits)
	}
	if 1+1+offsetBits+c.smallTagBits > 32 {
		return nil, fmt.Errorf("core: small way word overflows 32 bits (2+%d+%d)", offsetBits, c.smallTagBits)
	}
	return c, nil
}

// BigTagBits returns the tag width of a big way word.
func (c *MetadataCodec) BigTagBits() uint { return c.bigTagBits }

// EncodedBytes returns the byte size of one set's encoded metadata:
// 2 bytes of state plus 4 bytes per way slot at maximum associativity.
func (c *MetadataCodec) EncodedBytes() int {
	return 2 + 4*(c.params.MaxBig()+c.params.MaxSmall())
}

// Encode serializes m into buf, which must be at least EncodedBytes long.
func (c *MetadataCodec) Encode(m SetMetadata, buf []byte) error {
	p := c.params
	if len(buf) < c.EncodedBytes() {
		return fmt.Errorf("core: metadata buffer %d < %d", len(buf), c.EncodedBytes())
	}
	if !p.stateValid(m.State) {
		return fmt.Errorf("core: encoding illegal state %v", m.State)
	}
	if len(m.Big) != p.MaxBig() || len(m.Small) != p.MaxSmall() {
		return fmt.Errorf("core: way slices sized %d/%d, want %d/%d",
			len(m.Big), len(m.Small), p.MaxBig(), p.MaxSmall())
	}
	buf[0] = byte(m.State.X)
	buf[1] = byte(m.State.Y)
	off := 2
	for _, w := range m.Big {
		var word uint32
		if w.Valid {
			if w.Tag >= 1<<c.bigTagBits {
				return fmt.Errorf("core: big tag %#x exceeds %d bits", w.Tag, c.bigTagBits)
			}
			if w.Dirty >= 1<<uint(p.SubBlocks()) {
				return fmt.Errorf("core: dirty mask %#x exceeds %d sub-blocks", w.Dirty, p.SubBlocks())
			}
			word = 1<<31 | w.Dirty<<c.bigTagBits | uint32(w.Tag)
		}
		binary.LittleEndian.PutUint32(buf[off:], word)
		off += 4
	}
	for _, w := range m.Small {
		var word uint32
		if w.Valid {
			if w.Tag >= 1<<c.smallTagBits {
				return fmt.Errorf("core: small tag %#x exceeds %d bits", w.Tag, c.smallTagBits)
			}
			if uint(w.Offset) >= 1<<c.offsetBits {
				return fmt.Errorf("core: offset %d exceeds %d bits", w.Offset, c.offsetBits)
			}
			word = 1 << 31
			if w.Dirty {
				word |= 1 << 30
			}
			word |= uint32(w.Offset) << c.smallTagBits
			word |= uint32(w.Tag)
		}
		binary.LittleEndian.PutUint32(buf[off:], word)
		off += 4
	}
	return nil
}

// Decode deserializes one set's metadata from buf.
func (c *MetadataCodec) Decode(buf []byte) (SetMetadata, error) {
	p := c.params
	if len(buf) < c.EncodedBytes() {
		return SetMetadata{}, fmt.Errorf("core: metadata buffer %d < %d", len(buf), c.EncodedBytes())
	}
	m := SetMetadata{
		State: State{X: int(buf[0]), Y: int(buf[1])},
		Big:   make([]BigWayMeta, p.MaxBig()),
		Small: make([]SmallWayMeta, p.MaxSmall()),
	}
	if !p.stateValid(m.State) {
		return SetMetadata{}, fmt.Errorf("core: decoded illegal state %v", m.State)
	}
	off := 2
	for i := range m.Big {
		word := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		if word&(1<<31) == 0 {
			continue
		}
		m.Big[i] = BigWayMeta{
			Valid: true,
			Dirty: word >> c.bigTagBits & (1<<uint(p.SubBlocks()) - 1),
			Tag:   uint64(word & (1<<c.bigTagBits - 1)),
		}
	}
	for i := range m.Small {
		word := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		if word&(1<<31) == 0 {
			continue
		}
		m.Small[i] = SmallWayMeta{
			Valid:  true,
			Dirty:  word&(1<<30) != 0,
			Offset: uint8(word >> c.smallTagBits & (1<<c.offsetBits - 1)),
			Tag:    uint64(word & (1<<c.smallTagBits - 1)),
		}
	}
	return m, nil
}

// Snapshot extracts the live metadata of set si from the cache in codec
// form (used for checkpointing and for verifying the layout fits the
// burst budget the timing model charges).
func (c *Cache) Snapshot(si uint64) SetMetadata {
	s := &c.sets[si]
	m := SetMetadata{
		State: s.st,
		Big:   make([]BigWayMeta, c.params.MaxBig()),
		Small: make([]SmallWayMeta, c.params.MaxSmall()),
	}
	for v := s.validBig; v != 0; v &= v - 1 {
		i := bits.TrailingZeros32(v)
		b := c.big[int(si)*c.maxBig+i]
		m.Big[i] = BigWayMeta{Valid: true, Tag: b.tag, Dirty: b.dirty}
	}
	for v := s.validSmall; v != 0; v &= v - 1 {
		i := bits.TrailingZeros32(v)
		ln := c.small[int(si)*c.maxSmall+i]
		m.Small[i] = SmallWayMeta{
			Valid:  true,
			Dirty:  s.dirtySmall>>uint(i)&1 != 0,
			Offset: uint8(ln & c.subMask),
			Tag:    ln >> c.subShift >> c.setBits,
		}
	}
	return m
}
