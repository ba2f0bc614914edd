package trace

import (
	"testing"
	"unsafe"

	"bimodal/internal/snapshot"
)

// TestAccessSize pins the packed layout: every episode buffer, read-ahead
// chunk and primed access pays for each byte of Access.
func TestAccessSize(t *testing.T) {
	if got := unsafe.Sizeof(Access{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Access{}) = %d, want 16", got)
	}
}

// fillCases are the generators FuzzFill picks from: single profiles of
// every episode kind and tenant weaves with and without a shared region.
var fillCases = []func(seed uint64) Generator{
	func(seed uint64) Generator { return NewSynthetic(MustProfile("mcf"), 0, seed) },
	func(seed uint64) Generator { return NewSynthetic(MustProfile("lbm"), 1<<32, seed) },
	func(seed uint64) Generator { return NewSynthetic(MustProfile("omnetpp"), 0, seed) },
	func(seed uint64) Generator { return NewSynthetic(MustProfile("webserve"), 0, seed) },
	func(seed uint64) Generator {
		return NewInterleaver("dc4", []TenantStream{
			{Prof: MustProfile("kvstore"), Weight: 2},
			{Prof: MustProfile("kvstore"), Weight: 1},
			{Prof: MustProfile("webserve"), Weight: 1},
			{Prof: MustProfile("scan"), Weight: 1},
		}, 0, 0.05, 64, seed)
	},
	func(seed uint64) Generator {
		return NewInterleaver("kv2", []TenantStream{
			{Prof: MustProfile("kvstore"), Weight: 1},
			{Prof: MustProfile("webserve"), Weight: 3},
		}, 2<<32, 0, 0, seed)
	},
}

// FuzzFill is the differential test of the Filler contract: any mix of
// Fill lengths, Next calls, Resets and one snapshot/restore round trip
// must hand out exactly the stream plain Next calls on a freshly built
// generator do. Each op byte picks an action in its top two bits and a
// length or seed in the rest.
func FuzzFill(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{0x3f, 0x05, 0x80, 0xc0, 0x10})
	f.Add(uint8(4), uint64(7), []byte{0x01, 0x40, 0x3f, 0xc1, 0x3f, 0x85, 0x22})
	f.Add(uint8(5), uint64(3), []byte{0x20, 0x20, 0x20, 0xc0})
	f.Add(uint8(3), uint64(9), []byte{0xff, 0x00, 0x7f})
	f.Fuzz(func(t *testing.T, pick uint8, seed uint64, ops []byte) {
		mk := fillCases[int(pick)%len(fillCases)]
		got, want := mk(seed), mk(seed)
		if len(ops) > 64 {
			ops = ops[:64]
		}
		buf := make([]Access, 0, 64*37)
		snapped := false
		for i, op := range ops {
			arg := int(op & 0x3f)
			switch op >> 6 {
			case 0: // Fill a run; lengths reach past several episodes
				buf = buf[:arg*37]
				got.(Filler).Fill(buf)
				for j, a := range buf {
					if w := want.Next(); a != w {
						t.Fatalf("op %d: Fill(%d)[%d] = %+v, want %+v", i, len(buf), j, a, w)
					}
				}
			case 1: // Next calls
				for j := 0; j <= arg; j++ {
					if a, w := got.Next(), want.Next(); a != w {
						t.Fatalf("op %d: Next %d = %+v, want %+v", i, j, a, w)
					}
				}
			case 2: // Reset to a derived seed
				s := seed + uint64(arg)
				got.Reset(s)
				want = mk(s)
			case 3: // one snapshot/restore round trip into a new generator
				if snapped {
					continue
				}
				snapped = true
				w := snapshot.NewWriter()
				got.(snapshot.Snapshotter).SnapshotState(w)
				restored := mk(seed ^ uint64(arg))
				r := snapshot.NewReader(w.Bytes())
				restored.(snapshot.Snapshotter).RestoreState(r)
				if err := r.Err(); err != nil {
					t.Fatalf("op %d: restore: %v", i, err)
				}
				got = restored
			}
		}
	})
}
