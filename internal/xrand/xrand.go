// Package xrand provides a small, fast, deterministic random number
// generator for the simulator. Every simulated component that needs
// randomness owns its own xrand.Rand seeded from the experiment
// configuration, so runs are bit-reproducible regardless of package
// initialization order or parallelism.
package xrand

import (
	"math"
	"sync"

	"bimodal/internal/snapshot"
)

// Rand is a SplitMix64-seeded xorshift128+ generator. The zero value is not
// usable; construct with New.
type Rand struct {
	s0, s1 uint64
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	// SplitMix64 to spread the seed into two well-mixed words.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r := &Rand{s0: next(), s1: next()}
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

// Seed re-seeds the generator in place, leaving it in exactly the state
// New(seed) produces. It lets pooled components return to a fresh,
// deterministic cursor without allocating a new generator.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1 = next(), next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	r.s1 = x ^ y ^ (x >> 17) ^ (y >> 26)
	return r.s1 + y
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. Powers of
// two — most hot call sites pass line or page fan-outs — reduce the
// modulo to a mask, which is bit-identical to %.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	if n&(n-1) == 0 {
		return int(r.Uint64() & uint64(n-1))
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Fork derives an independent generator from this one. Streams drawn from a
// fork do not perturb the parent's sequence consumption pattern beyond the
// single Uint64 used to seed it.
func (r *Rand) Fork() *Rand { return New(r.Uint64()) }

// SnapshotState implements snapshot.Snapshotter: the generator's cursor
// is exactly its two state words.
func (r *Rand) SnapshotState(w *snapshot.Writer) {
	w.Tag("xrand")
	w.U64(r.s0)
	w.U64(r.s1)
}

// RestoreState implements snapshot.Snapshotter.
func (r *Rand) RestoreState(rd *snapshot.Reader) {
	rd.Tag("xrand")
	s0, s1 := rd.U64(), rd.U64()
	if rd.Err() != nil {
		return
	}
	if s0 == 0 && s1 == 0 {
		rd.Failf("xrand state words both zero (invalid xorshift128+ state)")
		return
	}
	r.s0, r.s1 = s0, s1
}

// Zipf draws Zipf(s)-distributed values over [0, n) using inverse-CDF on a
// precomputed table. Construct with NewZipf.
type Zipf struct {
	// cdf/idx are immutable distribution tables shared across resets and
	// restores; only the linked Rand carries mutable state.
	cdf []float64 //bmlint:nosnapshot
	idx []int32   //bmlint:nosnapshot
	r   *Rand
}

// zipfBuckets is the first-level index fan-out for Next's CDF search: u is
// quantized into this many equal slices, each bounding the subrange of the
// CDF its answers can fall in. Must be a power of two so the quantization
// (u * zipfBuckets, then the bucket boundary b/zipfBuckets) is exact in
// float64 and the bracketing below is airtight.
const zipfBuckets = 256

// zipfKey identifies one memoized CDF table: the table is a pure function
// of (n, s), independent of any seed.
type zipfKey struct {
	n int
	s float64
}

// zipfCDFs memoizes CDF tables across samplers. Building a table costs
// O(n) math.Pow calls — for million-page footprints this dominated
// end-to-end run construction — while the table itself is immutable and
// safely shared by every sampler with the same (n, s). The map only ever
// grows, bounded by the set of distinct workload profile geometries.
var zipfCDFs sync.Map // zipfKey -> *zipfTable

// zipfTable is one memoized sampler table: the CDF plus a first-level
// bucket index. idx[b] is the lower bound of the answers for any u in
// bucket b, idx[b+1] the upper bound, so Next searches a subrange instead
// of the full table (for skewed distributions most buckets span a handful
// of items). Both are pure functions of (n, s).
type zipfTable struct {
	cdf []float64
	idx []int32
}

// lowerBound returns the least i with cdf[i] >= u (len(cdf)-1 if none
// below the last entry), searching only [lo, hi].
func lowerBound(cdf []float64, u float64, lo, hi int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipfCDF returns the shared table for (n, s), building it once.
func zipfCDF(n int, s float64) *zipfTable {
	key := zipfKey{n, s}
	if t, ok := zipfCDFs.Load(key); ok {
		return t.(*zipfTable)
	}
	t, _ := zipfCDFs.LoadOrStore(key, newZipfTable(n, s))
	return t.(*zipfTable)
}

// newZipfTable builds the table for (n, s) without memoizing it.
func newZipfTable(n int, s float64) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	idx := make([]int32, zipfBuckets+1)
	for b := 1; b <= zipfBuckets; b++ {
		u := float64(b) / zipfBuckets
		idx[b] = int32(lowerBound(cdf, u, 0, n-1))
	}
	return &zipfTable{cdf: cdf, idx: idx}
}

// NewZipf builds a Zipf sampler with exponent s over n items, drawing
// randomness from r. Item 0 is the most popular. n must be positive and s
// should be > 0 for a skewed distribution (s=0 degenerates to uniform).
// Samplers with the same (n, s) share one immutable CDF table.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	t := zipfCDF(n, s)
	return &Zipf{cdf: t.cdf, idx: t.idx, r: r}
}

// SnapshotState implements snapshot.Snapshotter. The CDF table is a pure
// function of (n, s) and is rebuilt by NewZipf; only the sampler's rng
// cursor is mutable.
func (z *Zipf) SnapshotState(w *snapshot.Writer) {
	w.Tag("zipf")
	z.r.SnapshotState(w)
}

// RestoreState implements snapshot.Snapshotter.
func (z *Zipf) RestoreState(rd *snapshot.Reader) {
	rd.Tag("zipf")
	z.r.RestoreState(rd)
}

// Seed re-seeds the sampler's internal generator in place, leaving the
// sampler in exactly the state NewZipf(New(seed), n, s) produces. The
// shared CDF table is untouched.
func (z *Zipf) Seed(seed uint64) { z.r.Seed(seed) }

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() int { return zipfIndex(z.cdf, z.idx, z.r.Float64()) }

// zipfIndex returns the least i with cdf[i] >= u (len(cdf)-1 if none) for
// u in [0, 1). Bucket bracketing: u >= b/zipfBuckets bounds the answer
// below by idx[b], u < (b+1)/zipfBuckets bounds it above by idx[b+1] (the
// answer is monotone in u), so the subrange search returns exactly what
// the full binary search over [0, n-1] would. FuzzZipfIndex checks it
// against a plain search.
func zipfIndex(cdf []float64, idx []int32, u float64) int {
	b := int(u * zipfBuckets)
	return lowerBound(cdf, u, int(idx[b]), int(idx[b+1]))
}
