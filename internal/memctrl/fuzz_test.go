package memctrl

import (
	"bytes"
	"testing"

	"bimodal/internal/addr"
	"bimodal/internal/dram"
	"bimodal/internal/snapshot"
)

// refController is the reference for FuzzWriteQueue: the deferred write
// queue as a plain slice per channel, appended to on enqueue, shifted
// down after each half-drain and age-out, and drained by a stable
// insertion sort that swaps whole entries under writeBefore. It drives
// the same dram.Channel model as Controller and encodes the same
// snapshot section.
type refController struct {
	cfg      Config
	il       addr.Interleave
	channels []*dram.Channel
	writeQ   [][]refWrite
}

type refWrite struct {
	loc   addr.Location
	bytes int64
	at    int64
}

func newRef(cfg Config) *refController {
	if cfg.WriteQueueDepth > 0 && cfg.WriteMaxAge == 0 {
		cfg.WriteMaxAge = 4096
	}
	c := &refController{cfg: cfg, il: addr.NewInterleave(cfg.Geometry), writeQ: make([][]refWrite, cfg.Geometry.Channels)}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		c.channels = append(c.channels, dram.NewChannel(cfg.Timing, cfg.Geometry.Ranks, cfg.Geometry.BanksPerRnk))
	}
	return c
}

func (c *refController) observe(ch int, now int64) {
	if c.cfg.WriteQueueDepth == 0 {
		return
	}
	q := c.writeQ[ch]
	aged := 0
	for aged < len(q) && q[aged].at <= now-c.cfg.WriteMaxAge {
		aged++
	}
	if aged > 0 {
		c.drain(ch, q[:aged])
		c.writeQ[ch] = append(c.writeQ[ch][:0], q[aged:]...)
	}
}

// writeBefore orders deferred writes by (rank, bank, row, arrival).
func (c *refController) writeBefore(a, b *refWrite) bool {
	g := c.cfg.Geometry
	if ra, rb := g.Rank(a.loc.Bank), g.Rank(b.loc.Bank); ra != rb {
		return ra < rb
	}
	if ba, bb := a.loc.Bank%g.BanksPerRnk, b.loc.Bank%g.BanksPerRnk; ba != bb {
		return ba < bb
	}
	if a.loc.Row != b.loc.Row {
		return a.loc.Row < b.loc.Row
	}
	return a.at < b.at
}

func (c *refController) drain(ch int, batch []refWrite) {
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && c.writeBefore(&batch[j], &batch[j-1]); j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	for _, w := range batch {
		c.channels[ch].Access(dram.OpWrite, w.loc, w.at, w.bytes)
	}
}

func (c *refController) FlushWrites() {
	for ch, q := range c.writeQ {
		c.drain(ch, q)
		c.writeQ[ch] = q[:0]
	}
}

// flushedStats is what Controller.Stats must return: the channel sum after
// FlushWrites, taken on a copy so the reference itself moves on unflushed.
// The copy's channels come through their snapshot codec.
func (c *refController) flushedStats() dram.Stats {
	cp := newRef(c.cfg)
	for ch, dc := range c.channels {
		w := snapshot.NewWriter()
		dc.SnapshotState(w)
		cp.channels[ch].RestoreState(snapshot.NewReader(w.Bytes()))
		cp.writeQ[ch] = append([]refWrite(nil), c.writeQ[ch]...)
	}
	cp.FlushWrites()
	var s dram.Stats
	for _, dc := range cp.channels {
		s.Add(dc.Stats())
	}
	return s
}

func (c *refController) Reset() {
	for i := range c.writeQ {
		c.writeQ[i] = c.writeQ[i][:0]
	}
	for _, ch := range c.channels {
		ch.Reset()
	}
}

func (c *refController) ReadAt(l addr.Location, now, bytes int64) (int64, dram.RowResult) {
	c.observe(l.Channel, now)
	return c.channels[l.Channel].Access(dram.OpRead, l, now+c.cfg.FixedLatency, bytes)
}

func (c *refController) OpenAt(l addr.Location, now int64) (int64, dram.RowResult) {
	c.observe(l.Channel, now)
	return c.channels[l.Channel].Access(dram.OpOpen, l, now+c.cfg.FixedLatency, 0)
}

func (c *refController) WriteAt(l addr.Location, now, bytes int64) int64 {
	c.observe(l.Channel, now)
	if c.cfg.WriteQueueDepth == 0 {
		done, _ := c.channels[l.Channel].Access(dram.OpWrite, l, now, bytes)
		return done
	}
	q := append(c.writeQ[l.Channel], refWrite{loc: l, bytes: bytes, at: now})
	if len(q) >= c.cfg.WriteQueueDepth {
		half := len(q) / 2
		c.drain(l.Channel, q[:half])
		q = append(q[:0], q[half:]...)
	}
	c.writeQ[l.Channel] = q
	return now + 1
}

// SnapshotState encodes each queued write as its drain key (the
// rank-major bank in the top log2(banks) bits, the row below), column,
// bytes and arrival time.
func (c *refController) SnapshotState(w *snapshot.Writer) {
	rowBits := 64 - addr.Log2(uint64(c.cfg.Geometry.Banks()))
	w.Tag("memctrl")
	for _, ch := range c.channels {
		ch.SnapshotState(w)
	}
	for _, q := range c.writeQ {
		w.U32(uint32(len(q)))
		for _, pw := range q {
			w.U64(uint64(pw.loc.Bank)<<rowBits | pw.loc.Row)
			w.U64(pw.loc.Column)
			w.I64(pw.bytes)
			w.I64(pw.at)
		}
	}
}

// fuzzDepths are the write-queue depths FuzzWriteQueue picks from: 0
// issues writes at once, 1 holds a single write between calls, and the
// rest cover odd and even half-drains and a queue deeper than 64.
var fuzzDepths = [...]int{0, 1, 2, 3, 8, 32, 70}

// fuzzMaxAges are the write ages it picks from (0 takes the default).
var fuzzMaxAges = [...]int64{0, 64, 700, 5000}

// FuzzWriteQueue runs Controller beside refController over a sequence of
// operations decoded from the fuzz input and requires the same completion
// time and row outcome from every call, the same per-channel statistics
// after every call and the same snapshot bytes wherever one is taken.
//
// The first byte picks the geometry (bit 0: off-chip, two ranks of eight
// banks; else stacked, one rank), the queue depth (bits 1-3) and the
// write age (bits 4-5). Each operation is four bytes: an opcode whose
// low three bits pick Read, ReadAt, Write, WriteAt, Open, OpenAt,
// FlushWrites (Stats when bit 7 is set) or a SnapshotState/RestoreState
// round trip into a fresh controller (Reset when bit 7 is set), and whose
// bits 3-4 pick the arrival time (the same as the last, later by a small
// or a large step, or earlier than the last); then a location byte, a
// row/column byte and a time byte.
//
// Stats is the one operation only the controller performs: it must return
// the reference's statistics after a flush of a copy, and leave the
// controller exactly where the unflushed reference is, so every later
// comparison still holds.
func FuzzWriteQueue(f *testing.F) {
	// Same-row writes with equal keys and arrival times hundreds of
	// cycles apart and out of order, then a flush: the drain's
	// arrival-time tie-break decides their order, and the order moves the
	// bank and bus timing.
	f.Add([]byte{0x0a, 0x13, 2, 5, 100, 0x1b, 2, 5, 200, 0x1b, 2, 5, 100, 0x06, 0, 0, 0})
	f.Add([]byte{0x37, 0x32, 0x30, 0x30, 0x30, 0x5a, 0x30, 0x30, 0x30})
	f.Add([]byte{0x0b, 3, 0x84, 7, 0, 0x1b, 0x84, 7, 20, 0x1b, 0x84, 7, 10, 0x0b, 0x82, 3, 1, 0x07, 0, 0, 0, 0x1b, 0x84, 7, 5, 0x06, 0, 0, 0})
	// Writes across banks and rows until half-drains, age-outs on both
	// channels, a round trip with writes queued, a reset.
	f.Add([]byte{0x06, 2, 1, 1, 0, 2, 3, 2, 1, 2, 5, 3, 2, 2, 7, 4, 3, 0, 1, 1, 4,
		0x10, 9, 0, 255, 0x07, 0, 0, 0, 2, 1, 9, 2, 2, 3, 9, 2, 0x87, 0, 0, 0, 2, 1, 1, 2})
	f.Add([]byte{0x0d, 2, 0x21, 0, 1, 2, 0x20, 1, 1, 3, 0x43, 1, 1, 0x0a, 0x43, 0x81, 1, 4, 0x21, 0, 2,
		0x05, 0x21, 0, 3, 0x18, 0x02, 0, 9, 0x07, 0, 0, 0, 2, 0x63, 5, 1, 0x06, 0, 0, 0})
	f.Add([]byte{0x0c, 3, 0, 0, 1, 3, 2, 0, 1, 3, 4, 0, 1, 3, 6, 0, 1, 3, 8, 0, 1, 3, 10, 0, 1,
		3, 0x80, 1, 1, 3, 0x82, 1, 1, 0x07, 0, 0, 0, 1, 0, 0, 30, 0x16, 1, 0, 200})
	f.Add([]byte{0x00, 2, 1, 0, 0, 0, 1, 0, 5, 4, 1, 0, 0, 5, 1, 0, 0, 1, 3, 1, 10, 0x07, 0, 0, 0})
	// Stats with writes queued, then a read of the bank they wait for: a
	// Stats that drained the queue in place would have opened another row.
	// Then Stats around a flush, and across an age-out on two ranks.
	f.Add([]byte{0x08, 0x03, 2, 5, 0, 0x0b, 2, 9, 10, 0x86, 0, 0, 0, 0x09, 2, 5, 20, 0x86, 0, 0, 0,
		0x06, 0, 0, 0, 0x86, 0, 0, 0})
	f.Add([]byte{0x17, 0x03, 1, 7, 0, 0x0b, 3, 7, 5, 0x86, 0, 0, 0, 0x11, 1, 7, 3, 0x86, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := StackedConfig(2)
		if data[0]&1 != 0 {
			cfg = OffChipConfig(2)
		}
		cfg.WriteQueueDepth = fuzzDepths[int(data[0]>>1&7)%len(fuzzDepths)]
		cfg.WriteMaxAge = fuzzMaxAges[data[0]>>4&3]
		c, ref := New(cfg), newRef(cfg)
		g := cfg.Geometry
		now := int64(0)
		ops := data[1:]
		for i := 0; i+3 < len(ops); i += 4 {
			op, lb, rb, tb := ops[i], ops[i+1], ops[i+2], ops[i+3]
			at := now
			switch op >> 3 & 3 {
			case 1:
				now += int64(tb)
				at = now
			case 2:
				now += int64(tb) << 6
				at = now
			case 3:
				at = now - int64(tb)
			}
			// An address walks columns, channels, banks, ranks and rows of
			// the page lb; an explicit location adds rows up to bit 59,
			// which every geometry's drain key holds.
			p := addr.Phys(uint64(lb)*g.PageBytes + uint64(rb&31)*64)
			l := addr.Location{
				Channel: int(lb & 1),
				Bank:    int(lb>>1) & (g.Banks() - 1),
				Row:     uint64(rb) | uint64(lb>>7)<<59,
				Column:  uint64(rb&31) * 64,
			}
			size := int64(rb&7+1) * 64
			var got, want int64
			var gotRR, wantRR dram.RowResult
			switch op & 7 {
			case 0:
				got, gotRR = c.Read(p, at, size)
				want, wantRR = ref.ReadAt(ref.il.Map(p), at, size)
			case 1:
				got, gotRR = c.ReadAt(l, at, size)
				want, wantRR = ref.ReadAt(l, at, size)
			case 2:
				got, want = c.Write(p, at, size), ref.WriteAt(ref.il.Map(p), at, size)
			case 3:
				got, want = c.WriteAt(l, at, size), ref.WriteAt(l, at, size)
			case 4:
				got, gotRR = c.Open(p, at)
				want, wantRR = ref.OpenAt(ref.il.Map(p), at)
			case 5:
				got, gotRR = c.OpenAt(l, at)
				want, wantRR = ref.OpenAt(l, at)
			case 6:
				if op&0x80 != 0 {
					if got, want := c.Stats(), ref.flushedStats(); got != want {
						t.Fatalf("op %d: Stats %+v, reference after a flush %+v", i/4, got, want)
					}
					break
				}
				c.FlushWrites()
				ref.FlushWrites()
			case 7:
				if op&0x80 != 0 {
					c.Reset()
					ref.Reset()
					now = 0
					break
				}
				c = roundTrip(t, c, ref, i/4)
			}
			if got != want || gotRR != wantRR {
				t.Fatalf("op %d (%#x at %d): got (%d, %v), reference (%d, %v)", i/4, op, at, got, gotRR, want, wantRR)
			}
			compareStats(t, c, ref, i/4)
		}
		roundTrip(t, c, ref, len(ops)/4)
		c.FlushWrites()
		ref.FlushWrites()
		compareStats(t, c, ref, len(ops)/4)
		roundTrip(t, c, ref, len(ops)/4)
	})
}

// roundTrip requires c to encode the same snapshot bytes as ref, then
// restores them into a fresh controller and returns it.
func roundTrip(t *testing.T, c *Controller, ref *refController, op int) *Controller {
	t.Helper()
	w, want := snapshot.NewWriter(), snapshot.NewWriter()
	c.SnapshotState(w)
	ref.SnapshotState(want)
	if got, exp := w.Bytes(), want.Bytes(); !bytes.Equal(got, exp) {
		i := 0
		for i < len(got) && i < len(exp) && got[i] == exp[i] {
			i++
		}
		t.Fatalf("after op %d: snapshot (%d bytes) differs from the reference's (%d bytes) at byte %d:\ngot  %x\nwant %x",
			op, len(got), len(exp), i, got[i:min(i+32, len(got))], exp[i:min(i+32, len(exp))])
	}
	fresh := New(c.Config())
	r := snapshot.NewReader(w.Bytes())
	fresh.RestoreState(r)
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("after op %d: restore: %v (%d bytes left)", op, r.Err(), r.Remaining())
	}
	return fresh
}

func compareStats(t *testing.T, c *Controller, ref *refController, op int) {
	t.Helper()
	for ch, rc := range ref.channels {
		if got, want := c.ChannelStats(ch), rc.Stats(); got != want {
			t.Fatalf("after op %d: channel %d stats %+v, reference %+v", op, ch, got, want)
		}
	}
}
