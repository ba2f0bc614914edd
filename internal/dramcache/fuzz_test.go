package dramcache

import "testing"

// FuzzFastDiv checks the precomputed Lemire divider against the hardware
// divide for every dividend and divisor, including dividends at or above
// 2^32 (the plain-division fallback) and d = 1 (whose multiplier
// overflows to zero).
func FuzzFastDiv(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(1)<<32-1, uint64(7))
	f.Add(uint64(1)<<32, uint64(3))
	f.Add(^uint64(0), uint64(1))
	f.Add(uint64(123456789), uint64(1)<<40)
	f.Add(uint64(1)<<32-1, uint64(1)<<32)
	f.Add(uint64(4095), uint64(28))
	f.Fuzz(func(t *testing.T, n, d uint64) {
		if d == 0 {
			return
		}
		q, r := newFastDiv(d).divmod(n)
		if q != n/d || r != n%d {
			t.Fatalf("divmod(%d) by %d = (%d, %d), want (%d, %d)", n, d, q, r, n/d, n%d)
		}
	})
}
