package main

import (
	"fmt"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tailPercentile returns the nearest-rank p-th percentile of xs. It refuses
// when fewer than minTail samples lie beyond the rank: such a percentile is
// set by a handful of samples and moves from run to run.
func tailPercentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	rank := (p*n + 99) / 100 // ceil(p*n/100), 1-based
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", p, n, n-rank, minTail)
	}
	return sorted(xs)[rank-1], nil
}

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTimes returns, for every span, its duration less the part of it that
// its direct children cover. Overlapping children count once, and a child
// reaching outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	var iv [][2]int64
	for i, p := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, p.Start), min(spans[c].End, p.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), p.Start
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
				reach = x[1]
			}
		}
		out[i] = p.End - p.Start - covered
	}
	return out
}
