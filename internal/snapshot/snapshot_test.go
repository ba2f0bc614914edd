package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Tag("prims")
	w.U8(0xAB)
	w.U32(0xDEADBEEF)
	w.U64(1 << 62)
	w.I64(-42)
	w.Int(-7)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.Bytes8([]byte("blob"))
	w.String("str")
	w.U8s([]uint8{1, 2, 3})
	w.U32s([]uint32{4, 5})
	w.U64s([]uint64{6})
	w.I64s([]int64{-1, 0, 1})

	r := NewReader(w.Bytes())
	r.Tag("prims")
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<62 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bytes8(); !bytes.Equal(got, []byte("blob")) {
		t.Errorf("Bytes8 = %q", got)
	}
	if got := r.String(); got != "str" {
		t.Errorf("String = %q", got)
	}
	u8 := make([]uint8, 3)
	r.U8s(u8)
	if !bytes.Equal(u8, []byte{1, 2, 3}) {
		t.Errorf("U8s = %v", u8)
	}
	u32 := make([]uint32, 2)
	r.U32s(u32)
	if u32[0] != 4 || u32[1] != 5 {
		t.Errorf("U32s = %v", u32)
	}
	u64 := make([]uint64, 1)
	r.U64s(u64)
	if u64[0] != 6 {
		t.Errorf("U64s = %v", u64)
	}
	i64 := make([]int64, 3)
	r.I64s(i64)
	if i64[0] != -1 || i64[2] != 1 {
		t.Errorf("I64s = %v", i64)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("round trip error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("%d trailing bytes", r.Remaining())
	}
}

func TestReaderErrorsAreSticky(t *testing.T) {
	r := NewReader(nil)
	_ = r.U64()
	first := r.Err()
	if first == nil {
		t.Fatal("short read not detected")
	}
	_ = r.U32()
	r.Failf("later failure")
	if r.Err() != first {
		t.Errorf("first error did not stick: %v", r.Err())
	}
}

func TestTagMismatch(t *testing.T) {
	w := NewWriter()
	w.Tag("alpha")
	r := NewReader(w.Bytes())
	r.Tag("beta")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Errorf("tag mismatch error = %v", err)
	}
}

func TestBoolRejectsJunk(t *testing.T) {
	r := NewReader([]byte{7})
	_ = r.Bool()
	if r.Err() == nil {
		t.Error("bool byte 7 accepted")
	}
}

func TestSliceLengthMismatch(t *testing.T) {
	w := NewWriter()
	w.U64s([]uint64{1, 2, 3})
	r := NewReader(w.Bytes())
	dst := make([]uint64, 2)
	r.U64s(dst)
	if r.Err() == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSliceLenBoundsCheck(t *testing.T) {
	w := NewWriter()
	w.U32(1 << 30) // absurd element count with no data behind it
	r := NewReader(w.Bytes())
	if n := r.SliceLen(8); n != 0 || r.Err() == nil {
		t.Errorf("oversized slice length accepted: n=%d err=%v", n, r.Err())
	}
}

// bulkLengths are the table lengths the reference tests cover: empty, a
// single element, and an odd count.
var bulkLengths = []int{0, 1, 7}

// TestBulkWritersMatchPrimitives pins every bulk writer to the bytes a
// loop over the per-element primitives writes.
func TestBulkWritersMatchPrimitives(t *testing.T) {
	for _, n := range bulkLengths {
		u8 := make([]uint8, n)
		u32 := make([]uint32, n)
		u64 := make([]uint64, n)
		i64 := make([]int64, n)
		for i := 0; i < n; i++ {
			u8[i] = uint8(0xF0 + i)
			u32[i] = 0xDEADBEEF - uint32(i)
			u64[i] = 1<<63 | uint64(i)<<32 | 0xAB
			i64[i] = -1 - int64(i)<<40
		}

		bulk, ref := NewWriter(), NewWriter()
		bulk.U8s(u8)
		bulk.U32s(u32)
		bulk.U64s(u64)
		bulk.I64s(i64)
		ref.U32(uint32(n))
		for _, v := range u8 {
			ref.U8(v)
		}
		ref.U32(uint32(n))
		for _, v := range u32 {
			ref.U32(v)
		}
		ref.U32(uint32(n))
		for _, v := range u64 {
			ref.U64(v)
		}
		ref.U32(uint32(n))
		for _, v := range i64 {
			ref.I64(v)
		}
		if !bytes.Equal(bulk.Bytes(), ref.Bytes()) {
			t.Errorf("n=%d: bulk slices\n got %x\nwant %x", n, bulk.Bytes(), ref.Bytes())
		}

		// An Extend table of (bool, u64, u32) records.
		tab, ref := NewWriter(), NewWriter()
		tab.U8(0x11) // Extend appends behind earlier writes
		ref.U8(0x11)
		b := tab.Extend(n * 13)
		for i := 0; i < n; i++ {
			PutBool(b, i%2 == 1)
			binary.LittleEndian.PutUint64(b[1:], u64[i])
			binary.LittleEndian.PutUint32(b[9:], u32[i])
			b = b[13:]
			ref.Bool(i%2 == 1)
			ref.U64(u64[i])
			ref.U32(u32[i])
		}
		if !bytes.Equal(tab.Bytes(), ref.Bytes()) {
			t.Errorf("n=%d: Extend table\n got %x\nwant %x", n, tab.Bytes(), ref.Bytes())
		}
	}
}

// TestBulkReadersMatchPrimitives reads a payload written element by element
// back through the bulk readers.
func TestBulkReadersMatchPrimitives(t *testing.T) {
	for _, n := range bulkLengths {
		w := NewWriter()
		for _, width := range []int{1, 4, 8, 8} {
			w.U32(uint32(n))
			for i := 0; i < n; i++ {
				v := uint64(0xA0+i) * 0x0101010101010101
				switch width {
				case 1:
					w.U8(uint8(v))
				case 4:
					w.U32(uint32(v))
				case 8:
					w.U64(v)
				}
			}
		}
		for i := 0; i < n; i++ {
			w.Bool(i%2 == 0)
			w.U64(uint64(i) * 3)
		}

		r := NewReader(w.Bytes())
		u8 := make([]uint8, n)
		u32 := make([]uint32, n)
		u64 := make([]uint64, n)
		i64 := make([]int64, n)
		r.U8s(u8)
		r.U32s(u32)
		r.U64s(u64)
		r.I64s(i64)
		b := r.Next(n * 9)
		for i := 0; i < n; i++ {
			v := uint64(0xA0+i) * 0x0101010101010101
			if u8[i] != uint8(v) || u32[i] != uint32(v) || u64[i] != v || i64[i] != int64(v) {
				t.Errorf("n=%d element %d: got %#x %#x %#x %#x, want %#x", n, i, u8[i], u32[i], u64[i], i64[i], v)
			}
			if got := r.DecodeBool(b[0]); got != (i%2 == 0) {
				t.Errorf("n=%d element %d: DecodeBool = %v", n, i, got)
			}
			if got := binary.LittleEndian.Uint64(b[1:]); got != uint64(i)*3 {
				t.Errorf("n=%d element %d: table u64 = %d", n, i, got)
			}
			b = b[9:]
		}
		if err := r.Err(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Remaining() != 0 {
			t.Errorf("n=%d: %d trailing bytes", n, r.Remaining())
		}
	}
}

func TestBulkReadersRejectLengthMismatch(t *testing.T) {
	w := NewWriter()
	w.U32s([]uint32{1, 2, 3})
	for _, read := range []func(r *Reader){
		func(r *Reader) { r.U8s(make([]uint8, 2)) },
		func(r *Reader) { r.U32s(make([]uint32, 4)) },
		func(r *Reader) { r.U64s(make([]uint64, 3)) }, // 3 elements need 24 bytes
		func(r *Reader) { r.I64s(nil) },
	} {
		r := NewReader(w.Bytes())
		read(r)
		if r.Err() == nil {
			t.Error("mismatched bulk read accepted")
		}
	}
}

func TestDecodeBoolRejectsJunk(t *testing.T) {
	r := NewReader([]byte{0, 1, 2})
	b := r.Next(3)
	if r.DecodeBool(b[0]) || !r.DecodeBool(b[1]) || r.Err() != nil {
		t.Fatalf("valid bool bytes misread (err %v)", r.Err())
	}
	_ = r.DecodeBool(b[2])
	if r.Err() == nil {
		t.Error("bool byte 2 accepted")
	}
}

func TestNextBoundsCheck(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if b := r.Next(4); b != nil || r.Err() == nil {
		t.Errorf("over-long Next returned %v, err %v", b, r.Err())
	}
	r = NewReader([]byte{1, 2, 3})
	if b := r.Next(-1); b != nil || r.Err() == nil {
		t.Errorf("negative Next returned %v, err %v", b, r.Err())
	}
}

// TestSealMatchesReferenceEnvelope proves Seal writes the envelope a
// reference built from primitives does, at its exact size.
func TestSealMatchesReferenceEnvelope(t *testing.T) {
	const hash = "sha256:0123"
	w := NewWriter()
	w.Tag("state")
	w.U64s([]uint64{1, 2, 3})
	payload := w.Bytes()

	ref := NewWriter()
	ref.buf = append(ref.buf, magic...)
	ref.U32(Version)
	ref.String(hash)
	ref.Bytes8(payload)
	want := sealRaw(ref)
	got := Seal(hash, payload)
	if !bytes.Equal(got, want) {
		t.Errorf("Seal blob\n got %x\nwant %x", got, want)
	}
	if cap(got) != len(got) {
		t.Errorf("Seal blob cap %d, want its length %d", cap(got), len(got))
	}
}

// TestOpenAliasesBlob pins the zero-copy contract: the payload Open returns
// is the blob's own bytes, capped so an append cannot reach the checksum.
func TestOpenAliasesBlob(t *testing.T) {
	blob := Seal("sha256:abc", []byte("payload"))
	_, payload, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	off := len(blob) - sha256.Size - len(payload)
	if &payload[0] != &blob[off] {
		t.Error("Open copied the payload")
	}
	if cap(payload) != len(payload) {
		t.Errorf("payload cap %d exceeds its length %d", cap(payload), len(payload))
	}
}

func TestSealOpen(t *testing.T) {
	payload := []byte("simulator state bytes")
	const hash = "sha256:0000000000000000000000000000000000000000000000000000000000000000"
	blob := Seal(hash, payload)
	gotHash, gotPayload, err := Open(blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if string(gotHash) != hash {
		t.Errorf("prefix hash = %q", gotHash)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload = %q", gotPayload)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	blob := Seal("sha256:abc", []byte("payload"))
	for i := range blob {
		mutated := append([]byte(nil), blob...)
		mutated[i] ^= 0x40
		if _, _, err := Open(mutated); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	if _, _, err := Open(blob[:len(blob)-1]); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, _, err := Open(nil); err == nil {
		t.Error("empty blob accepted")
	}
}

func TestOpenRejectsVersionSkew(t *testing.T) {
	// Rebuild a blob with a bumped version and a valid checksum: only the
	// version check may reject it.
	w := NewWriter()
	w.buf = append(w.buf, magic...)
	w.U32(Version + 1)
	w.String("sha256:abc")
	w.Bytes8([]byte("payload"))
	blob := sealRaw(w)
	if _, _, err := Open(blob); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew error = %v", err)
	}
}

func TestOpenRejectsTrailingBytes(t *testing.T) {
	w := NewWriter()
	w.buf = append(w.buf, magic...)
	w.U32(Version)
	w.String("sha256:abc")
	w.Bytes8([]byte("payload"))
	w.U8(0xFF) // trailing garbage inside the checksummed body
	blob := sealRaw(w)
	if _, _, err := Open(blob); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes error = %v", err)
	}
}

// FuzzSnapshotRoundTrip drives the codec with a fuzzer-chosen op stream:
// whatever sequence of primitives is written must read back identically,
// and the sealed envelope must survive Seal/Open unchanged.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte("seed"))
	f.Add([]byte{8, 7, 6, 5, 4, 3, 2, 1, 0}, []byte{0xFF, 0x00, 0xA5})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, ops []byte, data []byte) {
		// Derive a deterministic value stream from data.
		vi := 0
		next := func() uint64 {
			var v uint64
			for i := 0; i < 8; i++ {
				if vi < len(data) {
					v = v<<8 | uint64(data[vi])
					vi++
				}
			}
			return v
		}

		w := NewWriter()
		type op struct {
			kind byte
			val  uint64
		}
		var script []op
		for _, k := range ops {
			k %= 14
			v := next()
			script = append(script, op{k, v})
			switch k {
			case 0:
				w.U8(uint8(v))
			case 1:
				w.U32(uint32(v))
			case 2:
				w.U64(v)
			case 3:
				w.I64(int64(v))
			case 4:
				w.Bool(v%2 == 1)
			case 5:
				w.F64(math.Float64frombits(v))
			case 6:
				w.Tag("t")
			case 7:
				w.Bytes8(data[:min(len(data), int(v%32))])
			case 8:
				w.U64s(fuzzU64s(v))
			case 9:
				w.U32s(fuzzU32s(v))
			case 10:
				w.I64s(fuzzI64s(v))
			case 11:
				w.U8s(data[:min(len(data), int(v%32))])
			case 12:
				// An Extend table of (bool, u64) records.
				n := int(v % 5)
				b := w.Extend(n * 9)
				for i := 0; i < n; i++ {
					PutBool(b, (v>>i)&1 == 1)
					binary.LittleEndian.PutUint64(b[1:], v+uint64(i))
					b = b[9:]
				}
			case 13:
				putSparse(w, v)
			}
		}

		payload := w.Bytes()
		blob := Seal("sha256:fuzz", payload)
		hash, opened, err := Open(blob)
		if err != nil {
			t.Fatalf("Seal/Open: %v", err)
		}
		if string(hash) != "sha256:fuzz" || !bytes.Equal(opened, payload) {
			t.Fatal("sealed payload did not round-trip")
		}

		r := NewReader(opened)
		for _, o := range script {
			switch o.kind {
			case 0:
				if got := r.U8(); got != uint8(o.val) {
					t.Fatalf("U8 = %d, want %d", got, uint8(o.val))
				}
			case 1:
				if got := r.U32(); got != uint32(o.val) {
					t.Fatalf("U32 = %d, want %d", got, uint32(o.val))
				}
			case 2:
				if got := r.U64(); got != o.val {
					t.Fatalf("U64 = %d, want %d", got, o.val)
				}
			case 3:
				if got := r.I64(); got != int64(o.val) {
					t.Fatalf("I64 = %d, want %d", got, int64(o.val))
				}
			case 4:
				if got := r.Bool(); got != (o.val%2 == 1) {
					t.Fatalf("Bool = %v", got)
				}
			case 5:
				want := math.Float64frombits(o.val)
				if got := r.F64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("F64 = %v, want %v", got, want)
				}
			case 6:
				r.Tag("t")
			case 7:
				want := data[:min(len(data), int(o.val%32))]
				if got := r.Bytes8(); !bytes.Equal(got, want) {
					t.Fatalf("Bytes8 = %v, want %v", got, want)
				}
			case 8:
				want := fuzzU64s(o.val)
				got := make([]uint64, len(want))
				r.U64s(got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("U64s[%d] = %d, want %d", i, got[i], want[i])
					}
				}
			case 9:
				want := fuzzU32s(o.val)
				got := make([]uint32, len(want))
				r.U32s(got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("U32s[%d] = %d, want %d", i, got[i], want[i])
					}
				}
			case 10:
				want := fuzzI64s(o.val)
				got := make([]int64, len(want))
				r.I64s(got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("I64s[%d] = %d, want %d", i, got[i], want[i])
					}
				}
			case 11:
				want := data[:min(len(data), int(o.val%32))]
				got := make([]uint8, len(want))
				if r.U8s(got); !bytes.Equal(got, want) {
					t.Fatalf("U8s = %v, want %v", got, want)
				}
			case 12:
				n := int(o.val % 5)
				b := r.Next(n * 9)
				for i := 0; i < n && b != nil; i++ {
					if got := r.DecodeBool(b[0]); got != ((o.val>>i)&1 == 1) {
						t.Fatalf("table bool %d = %v", i, got)
					}
					if got := binary.LittleEndian.Uint64(b[1:]); got != o.val+uint64(i) {
						t.Fatalf("table u64 %d = %d", i, got)
					}
					b = b[9:]
				}
			case 13:
				n, width, want := sparseTable(o.val)
				got := make([]byte, n*width)
				sr := r.Sparse(n, width)
				for i, b := sr.Next(); b != nil; i, b = sr.Next() {
					copy(got[i*width:], b)
				}
				if r.Err() == nil && !bytes.Equal(got, want) {
					t.Fatalf("sparse table of %d x %d bytes did not round-trip", n, width)
				}
			}
		}
		if err := r.Err(); err != nil {
			t.Fatalf("round-trip read error: %v", err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d trailing bytes after op replay", r.Remaining())
		}

		// A corrupted blob must never open successfully.
		if len(blob) > 0 {
			i := int(next() % uint64(len(blob)))
			mutated := append([]byte(nil), blob...)
			mutated[i] ^= 0x01
			if _, _, err := Open(mutated); err == nil {
				t.Fatalf("corruption at byte %d accepted", i)
			}
		}

		// A sparse table corrupted under the checksum: a flipped bitmap
		// bit, a changed count or a truncation is rejected, and a changed
		// entry byte is rejected when it leaves the entry all zero, and
		// never panics.
		v := next()
		n, width, _ := sparseTable(v)
		tw := NewWriter()
		putSparse(tw, v)
		table, bitmap := tw.Bytes(), (n+7)/8
		mutated := append([]byte(nil), table...)
		rejected := true
		switch pos := next(); {
		case pos%4 == 0 && n > 0:
			bit := int(pos>>2) % (8 * bitmap)
			mutated[bit/8] ^= 1 << (bit % 8)
		case pos%4 == 1:
			delta := uint32(pos>>2)%7 + 1
			binary.LittleEndian.PutUint32(mutated[bitmap:], binary.LittleEndian.Uint32(mutated[bitmap:])+delta)
		case pos%4 == 2 && len(table) > bitmap+4:
			at := bitmap + 4 + int(pos>>2)%(len(table)-bitmap-4)
			mutated[at] ^= byte(pos>>40) | 1
			e := (at - bitmap - 4) / width * width
			rejected = zero(mutated[bitmap+4+e : bitmap+4+e+width])
		default:
			mutated = mutated[:int(pos>>2)%len(table)]
		}
		r = NewReader(mutated)
		sr := r.Sparse(n, width)
		for _, b := sr.Next(); b != nil; _, b = sr.Next() {
		}
		if (r.Err() != nil) != rejected {
			t.Fatalf("corrupted sparse table of %d x %d bytes: err = %v, want rejected = %v", n, width, r.Err(), rejected)
		}
	})
}

// sparseTable derives a sparse table from a fuzz value: 0 to 69 entries
// of 1 to 9 bytes at a density of 0 to 100%, and its dense image. A
// present entry's first byte is odd, so it is never all zero.
func sparseTable(v uint64) (n, width int, dense []byte) {
	n, width = int(v%70), 1+int(v>>8%9)
	density := v >> 16 % 101
	dense = make([]byte, n*width)
	for i := 0; i < n; i++ {
		h := (v + uint64(i)) * 0x9E3779B97F4A7C15
		if h>>32%100 >= density {
			continue
		}
		e := dense[i*width : (i+1)*width]
		for j := range e {
			e[j] = byte(h >> (8 * (j % 8)))
		}
		e[0] |= 1
	}
	return n, width, dense
}

// putSparse writes sparseTable(v) as a sparse table, putting its nonzero
// entries only.
func putSparse(w *Writer, v uint64) {
	n, width, dense := sparseTable(v)
	t := w.Sparse(n, width)
	for i := 0; i < n; i++ {
		if e := dense[i*width : (i+1)*width]; !zero(e) {
			copy(t.Put(i), e)
		}
	}
	t.Close()
}

// TestSparseRejectsMalformed checks every rule of the sparse table
// encoding: a table reads back only with a count equal to its bitmap's
// popcount, no presence bit past its last entry, no present entry that is
// all zero and all of its entry bytes.
func TestSparseRejectsMalformed(t *testing.T) {
	// 11 two-byte entries, entries 1 and 9 present: a 2-byte bitmap, a
	// count and 4 entry bytes.
	w := NewWriter()
	sw := w.Sparse(11, 2)
	copy(sw.Put(1), []byte{1, 0})
	copy(sw.Put(9), []byte{0, 9})
	sw.Close()
	good := w.Bytes()
	if want := []byte{0b10, 0b10, 2, 0, 0, 0, 1, 0, 0, 9}; !bytes.Equal(good, want) {
		t.Fatalf("encoding = %v, want %v", good, want)
	}
	for _, tc := range []struct {
		name string
		edit func(b []byte) []byte
		want string
	}{
		{"ok", func(b []byte) []byte { return b }, ""},
		{"count above popcount", func(b []byte) []byte { b[2] = 3; return b }, "bitmap marks 2"},
		{"count below popcount", func(b []byte) []byte { b[2] = 1; return b }, "bitmap marks 2"},
		{"extra bit", func(b []byte) []byte { b[0] |= 1; return b }, "bitmap marks 3"},
		{"bit past the table", func(b []byte) []byte { b[1] |= 1 << 3; b[2] = 3; return b }, "past its end"},
		{"present entry all zero", func(b []byte) []byte { b[9] = 0; return b }, "entry 9 is present but all zero"},
		{"truncated entries", func(b []byte) []byte { return b[:len(b)-1] }, "truncated"},
		{"truncated bitmap", func(b []byte) []byte { return b[:1] }, "truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.edit(append([]byte(nil), good...)))
			dst := make([]byte, 11*2)
			sr := r.Sparse(11, 2)
			for i, b := sr.Next(); b != nil; i, b = sr.Next() {
				copy(dst[2*i:], b)
			}
			switch err := r.Err(); {
			case tc.want == "" && err != nil:
				t.Fatalf("valid table rejected: %v", err)
			case tc.want == "" && (dst[2] != 1 || dst[19] != 9 || r.Remaining() != 0):
				t.Fatalf("decoded %v with %d bytes left", dst, r.Remaining())
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// fuzzU64s, fuzzU32s and fuzzI64s derive short bulk slices (0-3
// elements) from a fuzz value.
func fuzzU64s(v uint64) []uint64 { return []uint64{v, ^v, v >> 3}[:v%4] }
func fuzzU32s(v uint64) []uint32 { return []uint32{uint32(v), uint32(v >> 32), 7}[:v%4] }
func fuzzI64s(v uint64) []int64  { return []int64{int64(v), -int64(v), -1}[:v%4] }

// sealRaw checksums a hand-built envelope body (test helper for skew
// cases Seal itself cannot produce).
func sealRaw(w *Writer) []byte {
	sum := sha256.Sum256(w.buf)
	return append(w.buf, sum[:]...)
}
