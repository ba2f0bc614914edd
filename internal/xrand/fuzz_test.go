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
