// Package snapshot provides the versioned, deterministic binary codec
// behind warm-state checkpointing: a Writer/Reader pair over fixed-width
// little-endian primitives, and a sealed envelope that binds a state blob
// to the prefix spec hash it was produced under.
//
// Determinism contract: SnapshotState implementations must emit bytes
// that are a pure function of the simulator state — no wall clock, no
// map-iteration order (sort keys first), no pointer identities. The
// bmdeterminism analyzer covers this package, and the golden tests in
// internal/sim prove the end-to-end property: restoring a snapshot and
// running the measured window produces result JSON byte-identical to a
// straight-through run.
//
// The codec is deliberately structural, not self-describing: a blob only
// restores into an object graph built from the same configuration that
// produced it (the prefix hash guarantees congruence), so implementations
// serialize mutable state only — geometry, tables derived from config,
// and constants are rebuilt by the constructor. Section tags (Tag) mark
// component boundaries so a producer/consumer skew fails loudly at the
// first drifted field instead of silently misreading the rest.
//
// Large tables are encoded in bulk. A small fixed table (cache set headers,
// predictor counters) is dense: Writer.Extend reserves its bytes once and
// the owner fills them in place with encoding/binary little-endian puts, in
// exactly the layout the per-element primitives would write; Reader.Next
// hands the decoder the same span as one bounds-checked slice. A table of
// mostly unwritten entries (cache ways, way-locator entries, tag arrays) is
// sparse: Writer.Sparse seals only its nonzero entries behind a presence
// bitmap, and Reader.Sparse scatters them back. Warm snapshots are sealed
// in place (NewSealer, Writer.Seal) and Open returns the payload as a
// sub-slice of the blob, so neither direction copies the payload.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Snapshotter is implemented by every simulator component that supports
// warm-state checkpointing. SnapshotState appends the component's mutable
// state to w; RestoreState overwrites the component's mutable state from
// r, assuming the component was constructed from the same configuration
// as the producer. Errors accumulate in the Reader (sticky), so deep
// object graphs restore without error plumbing; callers check r.Err()
// once at the top.
type Snapshotter interface {
	SnapshotState(w *Writer)
	RestoreState(r *Reader)
}

// Version is the envelope format version. Bump it when the meaning of
// sealed bytes changes incompatibly; Open rejects mismatches.
// v2: Access records carry a tenant byte and Synthetic serializes its
// decomposed address/arrival processes.
// v3: Bi-Modal family presets build with run-length-scaled core
// parameters, so their warm state means something else than under v2.
// v4: every table is sealed in the layout the simulator holds it: core
// sets without per-way valid and dirty bytes, 16-byte way-locator
// entries, write-queue entries as their drain key; dead DRAM and
// controller fields, LohHill's MissMap and the SRAM replacement rng are
// gone.
// v5: every bulk table of mostly unwritten entries (core ways, way-locator
// entries, tag arrays, page state) is sparse: a presence bitmap, a count
// and the nonzero entries only (Writer.Sparse).
const Version = 5

// magic identifies a sealed snapshot blob.
const magic = "BMSN"

// Writer appends fixed-width little-endian primitives to a buffer.
// The zero value is ready to use.
type Writer struct {
	buf []byte
	// payload is the offset of the payload in buf: 0 for a plain Writer,
	// the envelope header's length for one started by NewSealer.
	payload int
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the accumulated payload (not yet sealed).
func (w *Writer) Bytes() []byte { return w.buf[w.payload:] }

// Len returns the number of payload bytes written so far.
func (w *Writer) Len() int { return len(w.buf) - w.payload }

// Extend reserves n bytes at the end of the payload and returns them for
// the caller to fill in place, in the little-endian layout the per-element
// primitives would write (PutBool and encoding/binary's LittleEndian.Put*).
// The slice is valid until the next write.
func (w *Writer) Extend(n int) []byte {
	l := len(w.buf)
	if n > cap(w.buf)-l {
		// At least double: a sparse table grows one entry at a time.
		w.buf = slices.Grow(w.buf, l+n)
	}
	w.buf = w.buf[:l+n]
	return w.buf[l : l+n : l+n]
}

// PutBool stores v in b[0] as the 0/1 byte Bool writes, for filling
// Extend tables.
func PutBool(b []byte, v bool) {
	var x byte
	if v {
		x = 1
	}
	b[0] = x
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 writes a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a bool as one byte (0/1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 writes a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes8 writes a length-prefixed byte string.
func (w *Writer) Bytes8(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// U8s writes a length-prefixed []uint8.
func (w *Writer) U8s(s []uint8) { w.Bytes8(s) }

// U32s writes a length-prefixed []uint32.
func (w *Writer) U32s(s []uint32) {
	w.U32(uint32(len(s)))
	b := w.Extend(4 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(s []uint64) {
	w.U32(uint32(len(s)))
	b := w.Extend(8 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
}

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(s []int64) {
	w.U32(uint32(len(s)))
	b := w.Extend(8 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
}

// Tag writes a section marker. Readers consume it with Tag(name); a
// mismatch means producer and consumer disagree about the state layout
// and fails the restore at the boundary instead of misreading fields.
func (w *Writer) Tag(name string) {
	w.U8(0xA5)
	w.String(name)
}

// Reader consumes a payload written by Writer. Errors are sticky: the
// first failure (short read, tag mismatch, semantic validation) is
// recorded and every subsequent read returns zero values, so restore
// code reads straight through and checks Err once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps a payload.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Reset makes r read data from its start, with no error recorded, so a
// caller that restores repeatedly can keep one Reader instead of
// allocating one per payload.
func (r *Reader) Reset(data []byte) { *r = Reader{data: data} }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Failf records err (first failure wins).
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Next consumes the next n bytes and returns them as one bounds-checked
// slice, for decoding a bulk table in place (encoding/binary's
// LittleEndian getters and DecodeBool), or nil after recording a
// truncation error. The slice aliases the payload, which may be a shared
// read-only blob: decode from it, never write or retain it.
func (r *Reader) Next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Failf("truncated payload: want %d bytes at offset %d, have %d", n, r.off, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// DecodeBool decodes a bool byte taken from a Next table, recording an
// error for bytes other than 0/1 exactly as Bool does.
func (r *Reader) DecodeBool(v byte) bool {
	if v > 1 {
		r.badBool(v)
	}
	return v == 1
}

// badBool records a DecodeBool failure; kept out of line so DecodeBool
// inlines into table loops.
func (r *Reader) badBool(v byte) {
	r.Failf("invalid bool byte %d in the table ending at offset %d", v, r.off)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.Next(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.Next(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.Next(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a bool, rejecting bytes other than 0/1.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Failf("invalid bool byte %d at offset %d", v, r.off-1)
		return false
	}
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// bytes8 reads a length-prefixed byte string as a sub-slice of the
// payload.
func (r *Reader) bytes8() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > r.Remaining() {
		r.Failf("byte string length %d exceeds remaining %d", n, r.Remaining())
		return nil
	}
	return r.Next(n)
}

// Bytes8 reads a length-prefixed byte string into a fresh slice.
func (r *Reader) Bytes8() []byte { return append([]byte(nil), r.bytes8()...) }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.bytes8()) }

// SliceLen reads a variable slice length, validating it is non-negative
// and cannot exceed the remaining payload at minWidth bytes per element.
func (r *Reader) SliceLen(minWidth int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if minWidth < 1 {
		minWidth = 1
	}
	if n*minWidth > r.Remaining() {
		r.Failf("slice length %d exceeds remaining payload (%d bytes)", n, r.Remaining())
		return 0
	}
	return n
}

// table reads a bulk table's length prefix, requires it to match want
// (the restored object owns the geometry) and returns the table's
// want*width bytes, or nil after recording an error.
func (r *Reader) table(kind string, want, width int) []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n != want {
		r.Failf("%s slice length %d, want %d", kind, n, want)
		return nil
	}
	return r.Next(n * width)
}

// U8s fills dst from a length-prefixed []uint8, requiring the stored
// length to match len(dst) (the restored object owns the geometry).
func (r *Reader) U8s(dst []uint8) {
	copy(dst, r.table("u8", len(dst), 1))
}

// U32s fills dst from a length-prefixed []uint32 of matching length.
func (r *Reader) U32s(dst []uint32) {
	b := r.table("u32", len(dst), 4)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
}

// U64s fills dst from a length-prefixed []uint64 of matching length.
func (r *Reader) U64s(dst []uint64) {
	b := r.table("u64", len(dst), 8)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// I64s fills dst from a length-prefixed []int64 of matching length.
func (r *Reader) I64s(dst []int64) {
	b := r.table("i64", len(dst), 8)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Tag consumes a section marker and verifies its name.
func (r *Reader) Tag(name string) {
	if m := r.U8(); r.err == nil && m != 0xA5 {
		r.Failf("expected section tag %q, found byte 0x%02x", name, m)
		return
	}
	if got := r.bytes8(); r.err == nil && string(got) != name {
		r.Failf("section tag mismatch: restoring %q, blob has %q", name, got)
	}
}

// A sparse table holds n fixed-width entries, most of them all zero in a
// briefly warmed simulator. It is encoded as
//
//	bitmap | u32 count | present entries
//
// where the bitmap has one bit per entry ((n+7)/8 bytes, entry i at bit
// i%8 of byte i/8), an entry is present iff its encoding has a nonzero
// byte, and the present entries follow in index order. The encoding is
// canonical, one blob per state: Reader.Sparse rejects a count that
// disagrees with the bitmap, a bit at or past n and a present entry that
// is all zero.

// SparseWriter writes one sparse table; see Writer.Sparse.
type SparseWriter struct {
	w     *Writer
	at    int // offset of the bitmap in w.buf
	n     int
	width int
	count int
	last  int // index of the last entry Put, -1 before the first
}

// Sparse starts a sparse table of n entries of width bytes. The owner
// calls Put for its nonzero entries in increasing index order, fills the
// returned bytes in place and ends the table with Close. Skipping every
// zero entry is what keeps the encoding canonical: an entry Put and left
// all zero makes Reader.Sparse reject the blob.
func (w *Writer) Sparse(n, width int) SparseWriter {
	at := len(w.buf)
	clear(w.Extend((n+7)/8 + 4))
	return SparseWriter{w: w, at: at, n: n, width: width, last: -1}
}

// Put marks entry i present and returns its width bytes for the caller to
// fill with a nonzero entry, valid until the next write. i must exceed
// every earlier index.
func (t *SparseWriter) Put(i int) []byte {
	if i <= t.last || i >= t.n {
		panic(fmt.Sprintf("snapshot: sparse entry %d after %d in a table of %d", i, t.last, t.n))
	}
	t.last = i
	t.w.buf[t.at+i>>3] |= 1 << (i & 7)
	t.count++
	return t.w.Extend(t.width)
}

// Close ends the table, writing its count. The SparseWriter must not be
// used afterwards.
func (t *SparseWriter) Close() {
	binary.LittleEndian.PutUint32(t.w.buf[t.at+(t.n+7)/8:], uint32(t.count))
}

// zero reports whether every byte of b is zero.
func zero(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// SparseReader iterates the present entries of a sparse table; see
// Reader.Sparse.
type SparseReader struct {
	r       *Reader
	bitmap  []byte
	entries []byte
	width   int
	word    uint64 // presence bits not yet visited, entry base at bit 0
	base    int
	next    int // entry at bit 0 of the next word to load
}

// Sparse opens a sparse table of n entries of width bytes, checking that
// its count matches its bitmap and that no bit lies at or past n. The
// owner clears its table, then scatters the present entries back with
// Next. On a malformed table it records an error and Next yields nothing.
func (r *Reader) Sparse(n, width int) SparseReader {
	bitmap := r.Next((n + 7) / 8)
	count := int(r.U32())
	if r.err != nil {
		return SparseReader{}
	}
	if k := n & 7; k != 0 && bitmap[len(bitmap)-1]>>k != 0 {
		r.Failf("sparse table of %d entries has a presence bit past its end", n)
		return SparseReader{}
	}
	set := 0
	for b := bitmap; len(b) > 0; b = b[min(8, len(b)):] {
		set += bits.OnesCount64(loadWord(b))
	}
	if set != count {
		r.Failf("sparse table count %d, but its bitmap marks %d entries present", count, set)
		return SparseReader{}
	}
	entries := r.Next(count * width)
	if r.err != nil {
		return SparseReader{}
	}
	return SparseReader{r: r, bitmap: bitmap, entries: entries, width: width}
}

// loadWord reads up to the first 8 bytes of b as a little-endian word.
func loadWord(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w uint64
	for i, v := range b {
		w |= uint64(v) << (8 * i)
	}
	return w
}

// Next returns the index and the width bytes of the next present entry,
// or -1 and nil after the last one. It records an error, and stops, at a
// present entry that is all zero. The bytes alias the payload: decode
// from them, never write or retain them.
func (t *SparseReader) Next() (int, []byte) {
	for t.word == 0 {
		if t.next >= 8*len(t.bitmap) {
			return -1, nil
		}
		t.base, t.word = t.next, loadWord(t.bitmap[t.next/8:])
		t.next += 64
	}
	i := t.base + bits.TrailingZeros64(t.word)
	t.word &= t.word - 1
	e := t.entries[:t.width:t.width]
	t.entries = t.entries[t.width:]
	if zero(e) {
		t.r.Failf("sparse table entry %d is present but all zero", i)
		t.word, t.bitmap = 0, nil
		return -1, nil
	}
	return i, e
}

// NewSealer starts a sealed blob bound to prefixHash, in the versioned
// envelope
//
//	"BMSN" | u32 version | u32 len(hash) | hash | u32 len(payload) | payload | sha256
//
// where the trailing checksum covers every preceding byte. prefixHash is
// the prefix spec hash the blob is produced under (see spec.PrefixHash);
// Open returns it so consumers can verify the binding before restoring.
// The returned Writer holds the envelope header, writes the payload in
// place behind it (Bytes and Len still cover the payload only), and
// Seal finishes the blob without copying it. payloadHint is the expected
// payload length, a capacity hint (0 if unknown).
func NewSealer(prefixHash string, payloadHint int) *Writer {
	w := &Writer{buf: make([]byte, 0, len(magic)+12+len(prefixHash)+max(payloadHint, 0)+sha256.Size)}
	w.buf = append(w.buf, magic...)
	w.U32(Version)
	w.String(prefixHash)
	w.U32(0) // payload length, backfilled by Seal
	w.payload = len(w.buf)
	return w
}

// Seal finishes a blob started by NewSealer: it backfills the payload
// length, appends the checksum and returns the sealed blob. The Writer
// must not be used afterwards.
func (w *Writer) Seal() []byte {
	if w.payload == 0 {
		panic("snapshot: Seal on a Writer not started by NewSealer")
	}
	binary.LittleEndian.PutUint32(w.buf[w.payload-4:], uint32(w.Len()))
	sum := sha256.Sum256(w.buf)
	return append(w.buf, sum[:]...)
}

// Seal wraps a finished payload in the versioned envelope (see NewSealer).
func Seal(prefixHash string, payload []byte) []byte {
	w := NewSealer(prefixHash, len(payload))
	w.buf = append(w.buf, payload...)
	return w.Seal()
}

// Open unwraps a sealed blob, verifying magic, version and checksum, and
// returns the bound prefix hash and the payload. Both are sub-slices of
// blob, not copies: blobs are shared read-only (a sweep's warm group hands
// one blob to every member), so restore code must not write them or keep
// slices of them.
func Open(blob []byte) (prefixHash, payload []byte, err error) {
	if len(blob) < len(magic)+4+4+4+sha256.Size {
		return nil, nil, fmt.Errorf("snapshot: blob too short (%d bytes)", len(blob))
	}
	body, tail := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(tail) {
		return nil, nil, fmt.Errorf("snapshot: checksum mismatch (corrupt blob)")
	}
	r := Reader{data: body}
	if got := r.Next(len(magic)); string(got) != magic {
		return nil, nil, fmt.Errorf("snapshot: bad magic %q", got)
	}
	if v := r.U32(); v != Version {
		return nil, nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", v, Version)
	}
	prefixHash = r.bytes8()
	payload = r.bytes8()
	if r.err != nil {
		return nil, nil, r.err
	}
	if r.Remaining() != 0 {
		return nil, nil, fmt.Errorf("snapshot: %d trailing bytes after payload", r.Remaining())
	}
	return prefixHash, payload, nil
}
