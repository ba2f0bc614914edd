package core

import (
	"bytes"
	"fmt"
	"testing"

	"bimodal/internal/addr"
	"bimodal/internal/snapshot"
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

// modelGeometries are the set geometries FuzzCacheModel runs, each shrunk
// to 16 sets so a short stream evicts, converts set states and trains the
// predictor: the paper's 512B blocks in 2KB sets, and Figure 12's 256B
// blocks in 2KB sets and 1024B blocks in 4KB sets.
func modelGeometries() []Params {
	geom := func(setBytes, bigBlock uint64, minBig, threshold int) Params {
		p := DefaultParams(16 * setBytes)
		p.SetBytes, p.BigBlock, p.MinBig, p.Threshold = setBytes, bigBlock, minBig, threshold
		p.PredictorBits = 6
		p.SampleShift = 1
		p.AdaptInterval = 32
		return p
	}
	return []Params{
		geom(2048, 512, 2, 5),
		geom(2048, 256, 4, 3),
		geom(4096, 1024, 2, 10),
	}
}

// modelBlock is a resident block of the cache model: the way the cache
// reported for it and its sub-blocks referenced and written since its
// fill (bit 0 only, for small lines).
type modelBlock struct {
	way           int
	used, written uint32
}

// wayKey names one way of one set at one granularity.
type wayKey struct {
	set uint64
	big bool
	way int
}

// cacheModel is a map-based model of a Bi-Modal cache's contents, updated
// only from the Outcome of each access: the resident big blocks by block
// ID, the resident small lines by line ID, and the block each way holds.
type cacheModel struct {
	p          Params
	big, small map[uint64]*modelBlock
	ways       map[wayKey]uint64
	// Running totals of what the outcomes reported, for the stats check.
	hits, evictions, fetched, written int64
}

func newCacheModel(p Params) *cacheModel {
	return &cacheModel{p: p, big: map[uint64]*modelBlock{}, small: map[uint64]*modelBlock{}, ways: map[wayKey]uint64{}}
}

// step checks one access's outcome against the model and applies it.
func (m *cacheModel) step(a addr.Phys, write bool, out Outcome) error {
	p := m.p
	sub := uint64(p.SubBlocks())
	blk, ln := uint64(a)/p.BigBlock, uint64(a)>>6
	bit := uint32(1) << (ln % sub)
	b, inBig := m.big[blk]
	sm, inSmall := m.small[ln]
	if out.Hit != (inBig || inSmall) {
		return fmt.Errorf("access %#x: hit %v, model holds big %v small %v", a, out.Hit, inBig, inSmall)
	}
	if out.Hit {
		if out.Big != inBig || out.FillBytes != 0 || len(out.Evictions) != 0 {
			return fmt.Errorf("hit %#x: big %v fill %d evictions %d, model holds big %v",
				a, out.Big, out.FillBytes, len(out.Evictions), inBig)
		}
		e := sm
		if inBig {
			e = b
		} else {
			bit = 1
		}
		if out.Way != e.way {
			return fmt.Errorf("hit %#x in way %d, model has way %d", a, out.Way, e.way)
		}
		e.used |= bit
		if write {
			e.written |= bit
		}
		m.hits++
		return nil
	}
	for _, ev := range out.Evictions {
		res, id := m.small, uint64(ev.Addr)>>6
		if ev.Big {
			res, id = m.big, uint64(ev.Addr)/p.BigBlock
		}
		e, ok := res[id]
		if !ok || (ev.Big && uint64(ev.Addr)%p.BigBlock != 0) {
			return fmt.Errorf("access %#x evicts %+v, which the model does not hold", a, ev)
		}
		if ev.Way != e.way || ev.DirtyMask != e.written || ev.UsedMask != e.used {
			return fmt.Errorf("access %#x evicts %+v, model has way %d written %#x used %#x",
				a, ev, e.way, e.written, e.used)
		}
		delete(res, id)
		delete(m.ways, wayKey{uint64(ev.Addr) / p.BigBlock % p.NumSets(), ev.Big, ev.Way})
		m.evictions++
		m.written += int64(popcount(ev.DirtyMask))
	}
	e := &modelBlock{way: out.Way, used: bit}
	res, id, fill := m.small, ln, uint64(SmallBlock)
	if out.Big {
		res, id, fill = m.big, blk, p.BigBlock
		for l := blk * sub; l < (blk+1)*sub; l++ {
			if _, ok := m.small[l]; ok {
				return fmt.Errorf("big fill of %#x left line %#x resident small", a, l<<6)
			}
		}
	} else {
		e.used = 1
	}
	if write {
		e.written = e.used
	}
	if uint64(out.FillBytes) != fill {
		return fmt.Errorf("miss %#x: fill %d bytes, want %d (big %v)", a, out.FillBytes, fill, out.Big)
	}
	k := wayKey{blk % p.NumSets(), out.Big, out.Way}
	if held, ok := m.ways[k]; ok {
		return fmt.Errorf("miss %#x fills %+v, which still holds block %#x", a, k, held)
	}
	res[id] = e
	m.ways[k] = id
	m.fetched += out.FillBytes
	return nil
}

// FuzzCacheModel runs random read/write streams through a small cache of
// each modelGeometries shape, with and without a way locator, and checks
// every outcome against cacheModel: an access hits exactly when the model
// holds its line (at the granularity and in the way the model recorded),
// every eviction names a resident block in its own way and reports exactly
// the sub-blocks written (and, for a big block, referenced) since its fill,
// a fill lands in a way the evictions freed, and a big fill leaves none of
// its block's lines resident small. CheckInvariants, which also checks
// every valid way-locator entry against the sets, runs every 64 accesses,
// the counters must match the model's totals at the end, and, when asked,
// the cache goes through a snapshot round trip half way (the set table
// holds validity and small-way dirt only in the occupancy masks).
//
// A stream alternates jumps to a random line of a footprint of half to
// eight times the cache with walks through the current big block, so some
// blocks are used densely and others sparsely and the predictor asks for
// both granularities.
func FuzzCacheModel(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(3000), uint8(2), uint8(30), uint8(1))
	f.Add(uint8(0), uint64(2), uint16(3000), uint8(4), uint8(60), uint8(3))
	f.Add(uint8(1), uint64(3), uint16(3000), uint8(3), uint8(40), uint8(3))
	f.Add(uint8(1), uint64(4), uint16(2000), uint8(2), uint8(10), uint8(0))
	f.Add(uint8(2), uint64(5), uint16(3000), uint8(2), uint8(50), uint8(3))
	f.Add(uint8(2), uint64(6), uint16(2000), uint8(4), uint8(90), uint8(2))
	f.Fuzz(func(t *testing.T, geom uint8, seed uint64, n uint16, foot, writePct, flags uint8) {
		geoms := modelGeometries()
		p := geoms[int(geom)%len(geoms)]
		p.Seed = seed
		newCache := func() *Cache {
			if flags&1 == 0 {
				return NewCache(p, nil)
			}
			return NewCache(p, NewWayLocator(4, p.BigBlock))
		}
		c, m := newCache(), newCacheModel(p)
		r := xrand.New(seed)
		lines := p.CacheBytes << (foot % 5) >> 1 / SmallBlock
		sub := uint64(p.SubBlocks())
		var cur uint64
		accesses := int(n)%4096 + 1
		for i := 0; i < accesses; i++ {
			if i == accesses/2 && flags&2 != 0 {
				c = roundTrip(t, c, newCache())
			}
			if r.Bool(0.5) {
				cur = r.Uint64n(lines)
			} else {
				cur = cur - cur%sub + (cur+1)%sub
			}
			a, write := addr.Phys(cur<<6), r.Intn(100) < int(writePct)
			if err := m.step(a, write, c.Access(a, write)); err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			if i%64 == 63 {
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("access %d: %v", i, err)
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		s := c.Stats
		if s.Hits != m.hits || s.Evictions != m.evictions || s.FetchedBytes != m.fetched ||
			s.WritebackBytes != m.written*SmallBlock {
			t.Fatalf("stats %+v, model hits %d evictions %d fetched %d written back %d sub-blocks",
				s, m.hits, m.evictions, m.fetched, m.written)
		}
	})
}

// roundTrip seals c's state, restores it into fresh (built with the same
// parameters), checks that fresh seals the same bytes and returns it.
func roundTrip(t *testing.T, c, fresh *Cache) *Cache {
	t.Helper()
	w := snapshot.NewWriter()
	c.SnapshotState(w)
	r := snapshot.NewReader(w.Bytes())
	fresh.RestoreState(r)
	if err := r.Err(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("restore left %d bytes unread", r.Remaining())
	}
	w2 := snapshot.NewWriter()
	fresh.SnapshotState(w2)
	if !bytes.Equal(w.Bytes(), w2.Bytes()) {
		t.Fatal("restored cache seals different bytes")
	}
	return fresh
}
