package xrand

import "testing"

// FuzzZipfIndex checks the 256-bucket index Zipf.Next searches through
// against a plain linear search of the same CDF: the least item whose
// cumulative probability reaches u, or the last item. u is built the way
// Float64 builds it, from the top 53 bits of a uint64, so bucket
// boundaries b/256 are reachable exactly.
func FuzzZipfIndex(f *testing.F) {
	f.Add(uint16(1), uint8(0), uint64(0))
	f.Add(uint16(1024), uint8(67), uint64(1)<<63)
	f.Add(uint16(4095), uint8(255), ^uint64(0))
	f.Add(uint16(300), uint8(64), uint64(3)<<56)
	f.Add(uint16(2), uint8(200), uint64(255)<<56)
	f.Fuzz(func(t *testing.T, n16 uint16, s8 uint8, bits uint64) {
		n := int(n16)%4096 + 1
		s := float64(s8) / 64
		u := float64(bits>>11) / (1 << 53)
		tab := newZipfTable(n, s)
		want := n - 1
		for i, c := range tab.cdf {
			if c >= u {
				want = i
				break
			}
		}
		if got := zipfIndex(tab.cdf, tab.idx, u); got != want {
			t.Fatalf("zipfIndex(n=%d, s=%v, u=%v) = %d, plain search %d", n, s, u, got, want)
		}
	})
}

// FuzzIntn checks Intn and Uint64n, whose power-of-two moduli reduce to a
// mask, against Uint64() % n drawn from a copy of the same state: the same
// value, and the same single draw consumed. Any non-zero state and any n
// either method accepts is covered.
func FuzzIntn(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(1))
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(7), uint64(64))
	f.Add(^uint64(0), uint64(1)<<40, uint64(1)<<62)
	f.Add(uint64(12345), uint64(0), uint64(1)<<63)
	f.Add(uint64(3), uint64(5), uint64(3))
	f.Add(uint64(8), uint64(9), ^uint64(0))
	f.Fuzz(func(t *testing.T, s0, s1, n uint64) {
		if s0 == 0 && s1 == 0 {
			s0 = 1 // the one state xorshift128+ cannot leave
		}
		if in := int(n & (1<<63 - 1)); in > 0 {
			r, ref := &Rand{s0: s0, s1: s1}, Rand{s0: s0, s1: s1}
			if got, want := r.Intn(in), int(ref.Uint64()%uint64(in)); got != want {
				t.Fatalf("Intn(%d) from state (%#x, %#x) = %d, Uint64() %% n = %d", in, s0, s1, got, want)
			}
			if *r != ref {
				t.Fatalf("Intn(%d) left state %+v, Uint64 %+v", in, *r, ref)
			}
		}
		if n > 0 {
			r, ref := &Rand{s0: s0, s1: s1}, Rand{s0: s0, s1: s1}
			if got, want := r.Uint64n(n), ref.Uint64()%n; got != want {
				t.Fatalf("Uint64n(%d) from state (%#x, %#x) = %d, Uint64() %% n = %d", n, s0, s1, got, want)
			}
			if *r != ref {
				t.Fatalf("Uint64n(%d) left state %+v, Uint64 %+v", n, *r, ref)
			}
		}
	})
}
