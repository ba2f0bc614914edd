package trace

import (
	"fmt"
	"math/bits"

	"bimodal/internal/addr"
	"bimodal/internal/xrand"
)

// This file is the tenant-interleaver stage of the traffic-model
// pipeline: Interleaver weaves N per-tenant Synthetic streams into one
// deterministic access stream, tagging every Access with its tenant ID
// and optionally folding a fraction of all traffic onto a small shared
// hot-page region — the key-value/web-serving shape (Banshee, MemCache)
// where tenants contend for the same popular objects.

// MaxTenants bounds the tenants one interleaver can weave. Each tenant
// occupies one 256MB slot of the owning core's 4GB address slice; the
// sixteenth slot is reserved for the shared hot-page region.
const MaxTenants = 15

// tenantSlotShift is log2 of the per-tenant address slot (256MB).
const tenantSlotShift = 28

// sharedHashMul scatters per-tenant pages over the shared hot region
// (Fibonacci multiplicative hash, the page-permutation constant).
const sharedHashMul = 0x9E3779B97F4A7C15

// TenantStream configures one tenant's share of an interleaved stream.
type TenantStream struct {
	// Prof is the tenant's synthetic profile.
	Prof Profile
	// Weight is the tenant's relative share of the interleaved accesses
	// (> 0; shares are normalized over the stream's tenants).
	Weight float64
}

// TenantSeed derives tenant t's generator seed from the interleaver
// seed, the per-tenant analogue of workloads.CoreSeed: identical profiles
// on different tenants produce distinct streams, and the pooled-run reset
// path re-derives exactly the seeds construction used.
func TenantSeed(seed uint64, t int) uint64 {
	return seed*0x9E3779B97F4A7C15 + uint64(t)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
}

// Interleaver implements Generator over N per-tenant Synthetic streams.
// Tenants are scheduled in short weighted bursts (a tenant is drawn by
// weight, then issues 1-4 consecutive accesses) so the interleaved stream
// keeps per-tenant spatial locality runs instead of shredding them
// access by access. With SharedFrac > 0, that fraction of all accesses is
// remapped onto a small shared hot-page region common to every tenant,
// preserving the line offset within the page.
//
// Tenant IDs are assigned in stream order, 0..len(streams)-1.
type Interleaver struct {
	// label, cum and the shared-region geometry are construction-time
	// configuration; subs' bindings are permanent (their internal state
	// resets in place).
	label string //bmlint:resetconst //bmlint:nosnapshot
	// cum holds cumulative normalized weights; cum[i] is the upper draw
	// threshold of tenant i (cum[len-1] == 1).
	cum []float64 //bmlint:resetconst //bmlint:nosnapshot
	// sharedFrac, sharedBase and sharedShift define the hot-page overlay:
	// a page hashes into the shared region by multiplicative hash, keeping
	// its line offset.
	sharedFrac  float64   //bmlint:resetconst //bmlint:nosnapshot
	sharedBase  addr.Phys //bmlint:resetconst //bmlint:nosnapshot
	sharedShift uint      //bmlint:resetconst //bmlint:nosnapshot
	rng         *xrand.Rand
	subs        []*Synthetic
	// cur is the tenant currently scheduled; burst counts its remaining
	// consecutive accesses.
	cur   int
	burst int
}

// NewInterleaver weaves streams into one tenant-tagged generator placed
// at base (tenant t's footprint occupies base + t<<28). sharedFrac of all
// accesses (0 disables) are remapped onto a shared hot region of
// sharedPages 4KB pages (a power of two), and all randomness — the weave
// schedule and every per-tenant stream — derives from seed.
func NewInterleaver(label string, streams []TenantStream, base addr.Phys, sharedFrac float64, sharedPages uint64, seed uint64) *Interleaver {
	if len(streams) == 0 || len(streams) > MaxTenants {
		panic(fmt.Sprintf("trace: interleaver needs 1..%d tenant streams, got %d", MaxTenants, len(streams)))
	}
	if sharedFrac < 0 || sharedFrac >= 1 {
		panic(fmt.Sprintf("trace: shared fraction %v out of [0,1)", sharedFrac))
	}
	if sharedFrac > 0 && (sharedPages == 0 || !addr.IsPow2(sharedPages) || sharedPages > 1<<(tenantSlotShift-12)) {
		panic(fmt.Sprintf("trace: shared region %d pages must be a power of two fitting one tenant slot", sharedPages))
	}
	iv := &Interleaver{
		label:      label,
		cum:        make([]float64, len(streams)),
		sharedFrac: sharedFrac,
		rng:        xrand.New(seed),
		subs:       make([]*Synthetic, len(streams)),
	}
	var total float64
	for _, st := range streams {
		if st.Weight <= 0 {
			panic(fmt.Sprintf("trace: tenant stream %q weight %v must be positive", st.Prof.Name, st.Weight))
		}
		total += st.Weight
	}
	acc := 0.0
	for i, st := range streams {
		if st.Prof.FootprintBytes() > 1<<tenantSlotShift {
			panic(fmt.Sprintf("trace: tenant profile %s footprint exceeds the %dMB tenant slot", st.Prof.Name, 1<<(tenantSlotShift-20)))
		}
		acc += st.Weight / total
		iv.cum[i] = acc
		iv.subs[i] = NewSynthetic(st.Prof, base+addr.Phys(uint64(i)<<tenantSlotShift), TenantSeed(seed, i))
	}
	iv.cum[len(iv.cum)-1] = 1 // guard against float rounding
	if sharedFrac > 0 {
		iv.sharedBase = base + addr.Phys(uint64(MaxTenants)<<tenantSlotShift)
		iv.sharedShift = uint(64 - bits.TrailingZeros64(sharedPages))
	}
	return iv
}

// Name implements Generator.
func (iv *Interleaver) Name() string { return iv.label }

// Tenants returns the number of woven tenant streams; the cpu engine
// sizes its per-tenant attribution from it.
func (iv *Interleaver) Tenants() int { return len(iv.subs) }

// Reset implements Generator, re-deriving the weave rng and every
// per-tenant stream from seed exactly as NewInterleaver does.
//
//bmlint:hotpath
func (iv *Interleaver) Reset(seed uint64) {
	iv.rng.Seed(seed)
	for i, s := range iv.subs {
		s.Reset(TenantSeed(seed, i))
	}
	iv.cur = 0
	iv.burst = 0
}

// Next implements Generator: pick the scheduled tenant (weighted draw at
// each burst boundary), take its next access, tag it, and with
// SharedFrac > 0 draw whether to fold it onto the shared hot region.
//
//bmlint:hotpath
func (iv *Interleaver) Next() Access {
	if iv.burst <= 0 {
		iv.schedule()
	}
	iv.burst--
	a := iv.subs[iv.cur].Next()
	a.Tenant = uint8(iv.cur)
	if iv.sharedFrac > 0 && iv.rng.Bool(iv.sharedFrac) {
		a.Addr = iv.fold(a.Addr)
	}
	return a
}

// Fill implements Filler a burst at a time: the scheduled tenant fills its
// whole remaining burst in one call, then each access is tagged in order.
// The weave rng and each tenant's rng are separate streams, so drawing the
// tenant's accesses before the weave's shared-fold draws leaves both
// sequences exactly as Next interleaves them.
//
//bmlint:hotpath
func (iv *Interleaver) Fill(buf []Access) {
	for len(buf) > 0 {
		if iv.burst <= 0 {
			iv.schedule()
		}
		n := min(iv.burst, len(buf))
		iv.burst -= n
		run := buf[:n]
		iv.subs[iv.cur].Fill(run)
		for i := range run {
			run[i].Tenant = uint8(iv.cur)
			if iv.sharedFrac > 0 && iv.rng.Bool(iv.sharedFrac) {
				run[i].Addr = iv.fold(run[i].Addr)
			}
		}
		buf = buf[n:]
	}
}

// schedule draws the next tenant by weight and its burst length.
func (iv *Interleaver) schedule() {
	u := iv.rng.Float64()
	i := 0
	for i+1 < len(iv.cum) && u >= iv.cum[i] {
		i++
	}
	iv.cur = i
	iv.burst = 1 + iv.rng.Intn(4)
}

// fold deterministically maps an address onto the shared hot region,
// keeping the line offset: the small region concentrates every tenant's
// remapped traffic onto the same hot pages.
func (iv *Interleaver) fold(a addr.Phys) addr.Phys {
	line := a & (PageBytes - 1)
	page := (uint64(a) >> 12) * sharedHashMul >> iv.sharedShift
	return iv.sharedBase + addr.Phys(page*PageBytes) + line
}
