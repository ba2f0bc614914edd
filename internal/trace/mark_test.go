package trace

import (
	"bytes"
	"testing"

	"bimodal/internal/snapshot"
)

// snapshotBytes encodes g's state.
func snapshotBytes(g Generator) []byte {
	w := snapshot.NewWriter()
	g.(snapshot.Snapshotter).SnapshotState(w)
	return w.Bytes()
}

// FuzzRewind is the differential test of Mark and Rewind. Each case runs
// the FuzzFill ops (Fill, Next, Reset and one snapshot round trip) on a
// generator and the same stream through Next on a twin, then marks the
// generator, draws up to 20,000 accesses and rewinds. The re-drawn run
// must equal the first, and the generator's SnapshotState bytes and its
// continuation must equal the twin's, which never rewound. The Mark was
// last used on another generator, as a Mark kept with a read-ahead buffer
// is; ops ending in a round trip put the mark inside a restored tail.
func FuzzRewind(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{0x3f, 0x05, 0x80}, uint16(5000))
	f.Add(uint8(4), uint64(7), []byte{0x01, 0x40, 0xc1}, uint16(20000))
	f.Add(uint8(4), uint64(2), []byte{0x3f, 0x3f, 0x3f, 0xc0}, uint16(9000))
	f.Add(uint8(1), uint64(5), []byte{0x10, 0xc3}, uint16(3000))
	f.Add(uint8(5), uint64(3), []byte{0xc0}, uint16(1))
	f.Add(uint8(3), uint64(9), []byte{}, uint16(0))
	f.Add(uint8(2), uint64(4), []byte{0x85, 0x21}, uint16(777))
	f.Fuzz(func(t *testing.T, pick uint8, seed uint64, ops []byte, draws uint16) {
		mk := fillCases[int(pick)%len(fillCases)]
		got, want := mk(seed), mk(seed)
		if len(ops) > 64 {
			ops = ops[:64]
		}
		buf := make([]Access, 64*37)
		snapped := false
		for i, op := range ops {
			arg := int(op & 0x3f)
			switch op >> 6 {
			case 0:
				run := buf[:arg*37]
				got.(Filler).Fill(run)
				for j, a := range run {
					if w := want.Next(); a != w {
						t.Fatalf("op %d: Fill(%d)[%d] = %+v, want %+v", i, len(run), j, a, w)
					}
				}
			case 1:
				for j := 0; j <= arg; j++ {
					if a, w := got.Next(), want.Next(); a != w {
						t.Fatalf("op %d: Next %d = %+v, want %+v", i, j, a, w)
					}
				}
			case 2:
				s := seed + uint64(arg)
				got.Reset(s)
				want.Reset(s)
			case 3:
				if snapped {
					continue
				}
				snapped = true
				restored := mk(seed ^ uint64(arg))
				r := snapshot.NewReader(snapshotBytes(got))
				restored.(snapshot.Snapshotter).RestoreState(r)
				if err := r.Err(); err != nil {
					t.Fatalf("op %d: restore: %v", i, err)
				}
				got = restored
			}
		}

		var m Mark
		fillCases[(int(pick)+1)%len(fillCases)](seed).(Filler).Mark(&m)
		g := got.(Filler)
		g.Mark(&m)
		first := make([]Access, int(draws)%20_001)
		for rest := first; len(rest) > 0; {
			n := min(len(rest), 1+int(seed%2048))
			g.Fill(rest[:n])
			rest = rest[n:]
		}
		for j, a := range first {
			if w := want.Next(); a != w {
				t.Fatalf("draw %d after Mark = %+v, want %+v", j, a, w)
			}
		}
		g.Rewind(&m)
		again := make([]Access, len(first))
		g.Fill(again)
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("re-drawn access %d after Rewind = %+v, want %+v", j, again[j], first[j])
			}
		}
		if a, w := snapshotBytes(got), snapshotBytes(want); !bytes.Equal(a, w) {
			t.Fatalf("SnapshotState after Rewind and %d re-draws differs from a generator that never rewound", len(first))
		}
		for j := 0; j < 3000; j++ {
			if a, w := got.Next(), want.Next(); a != w {
				t.Fatalf("continuation %d = %+v, want %+v", j, a, w)
			}
		}
	})
}
