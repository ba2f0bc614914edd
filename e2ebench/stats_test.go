package main

import (
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the percentile must sort
	}
	return xs
}

func TestTailPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		want float64
	}{
		{100, 90, 90},
		{101, 90, 91},
		{200, 95, 190},
		{250, 90, 225},
	} {
		got, err := tailPercentile(seq(tc.n), tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%d of 1..%d = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestTailPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{99, 90}, {199, 95}, {0, 90}, {10, 50}} {
		if got, err := tailPercentile(seq(tc.n), tc.p); err == nil {
			t.Errorf("p%d of %d samples = %v, want a refusal: fewer than %d lie beyond it", tc.p, tc.n, got, minTail)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1},
		{Start: 10, End: 30, Parent: 0},
		{Start: 20, End: 50, Parent: 0},  // overlaps the previous child
		{Start: 90, End: 120, Parent: 0}, // ends after its parent
		{Start: 12, End: 18, Parent: 1},  // a grandchild: not the root's
		{Start: 200, End: 210, Parent: -1},
	}
	want := []int64{
		100 - 40 - 10, // children cover [10,50) and [90,100)
		20 - 6,
		30,
		30,
		6,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}
