package core

import (
	"testing"

	"bimodal/internal/xrand"
)

// FuzzVictimWay checks victim selection against naive references over any
// way count n in 1..32, valid and protected masks and rng seed: the
// invalid-way pick against a linear scan for the lowest invalid way, and
// randomWay against the k-th unprotected way in ascending order with
// k = Intn(free) drawn from a copy of the rng (Intn(n) when every way is
// protected), leaving the rng in the copy's state. n = 32 exercises the
// uint32 wrap of the way masks.
func FuzzVictimWay(f *testing.F) {
	f.Add(uint8(3), uint32(0b1011), uint32(0), uint64(1))
	f.Add(uint8(17), uint32(0x3ffff), uint32(0x20001), uint64(99))
	f.Add(uint8(31), ^uint32(0), uint32(0x0000ffff), uint64(7))
	f.Add(uint8(31), ^uint32(0), ^uint32(0), uint64(3))
	f.Add(uint8(31), uint32(0x7fffffff), uint32(0x7ffffffe), uint64(11))
	f.Add(uint8(0), uint32(1), uint32(1), uint64(5))
	f.Fuzz(func(t *testing.T, nb uint8, valid, protected uint32, seed uint64) {
		n := int(nb)%32 + 1
		wantInvalid := -1
		var unprot []int
		for w := 0; w < n; w++ {
			if valid&(1<<w) == 0 && wantInvalid < 0 {
				wantInvalid = w
			}
			if protected&(1<<w) == 0 {
				unprot = append(unprot, w)
			}
		}
		if got := invalidWay(valid, n); got != wantInvalid {
			t.Fatalf("invalidWay(%#x, %d) = %d, want %d", valid, n, got, wantInvalid)
		}

		c := &Cache{rng: xrand.New(seed)}
		ref := *c.rng
		var want int
		if len(unprot) == 0 {
			want = ref.Intn(n)
		} else {
			want = unprot[ref.Intn(len(unprot))]
		}
		if got := c.randomWay(n, protected); got != want {
			t.Fatalf("randomWay(%d, %#x) with seed %d = %d, want %d", n, protected, seed, got, want)
		}
		if *c.rng != ref {
			t.Fatalf("randomWay(%d, %#x) left rng %+v, want %+v", n, protected, *c.rng, ref)
		}
	})
}
