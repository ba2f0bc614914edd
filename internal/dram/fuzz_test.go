package dram

import (
	"encoding/binary"
	"testing"

	"bimodal/internal/addr"
)

// FuzzBurst checks the bytes-to-burst memo in Channel.Access against the
// plain formula (bytes+perClock-1)/perClock*ratio for any sequence of byte
// counts, on both timings the simulator builds channels from. Access adds
// exactly the burst to Stats.BusyCPU, which makes the memo observable
// without reaching into it; a count of zero or less transfers nothing.
// Each pair of data bytes is one count (a set top bit negates it), and
// the count's low byte also picks a read or a write, a bank and a row, so
// row hits, misses and both bus turnarounds go through the memo.
func FuzzBurst(f *testing.F) {
	f.Add(false, []byte{0, 64, 0, 64, 0, 128, 0, 64})
	f.Add(true, []byte{0, 64, 2, 0, 2, 0, 0, 65, 0, 1})
	f.Add(false, []byte{0, 0, 255, 255, 0, 31, 0, 32, 0, 33})
	f.Add(true, []byte{0x80, 64, 0x81, 64, 0x80, 64})
	f.Fuzz(func(t *testing.T, ddr bool, data []byte) {
		tm := StackedTiming()
		if ddr {
			tm = DDR31600H()
		}
		c := NewChannel(tm, 1, 8)
		now := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			b := int64(binary.BigEndian.Uint16(data[i:]))
			if data[i]&0x80 != 0 {
				b = -b // counts of zero or less transfer nothing
			}
			want := int64(0)
			if b > 0 {
				want = (b + tm.BytesPerClock - 1) / tm.BytesPerClock * tm.ClockRatio
			}
			op := OpRead
			if data[i+1]&1 != 0 {
				op = OpWrite
			}
			l := addr.Location{Bank: int(data[i+1]>>1) & 7, Row: uint64(data[i+1] >> 4)}
			before := c.Stats().BusyCPU
			now += 50
			c.Access(op, l, now, b)
			if got := c.Stats().BusyCPU - before; got != want {
				t.Fatalf("access %d of %d bytes: burst %d cycles, formula %d", i/2, b, got, want)
			}
		}
	})
}
