// Package cluster distributes sweep cells across worker processes.
//
// A Coordinator embeds in the sweep server (it implements
// service.Dispatcher, so the sweep executor hands it every cell the
// content-addressed store cannot answer) and shards cells over the
// registered workers by consistent hashing on the cell's canonical spec
// hash. Workers are thin pull loops around service.RunCellSpec: join,
// long-poll for tasks, run, report bytes. Because result bytes are a pure
// function of the canonical RunSpec (the determinism contract the
// simulator packages enforce), placement is a performance decision only —
// a sweep merged from three workers is byte-identical to the same sweep
// run on one node, and the goldens prove it.
//
// The placement ring is the usual consistent-hashing construction: each
// worker projects a fixed number of virtual nodes onto a 64-bit circle,
// and a cell belongs to the first virtual node clockwise of its spec
// hash. Virtual nodes keep the shard sizes balanced (stddev shrinks with
// sqrt(vnodes)) and joining or losing one worker moves only ~1/N of the
// keys — cells queued on surviving workers stay put through a reap.
package cluster

import (
	"hash/fnv"
	"sort"
)

// vnodes is the number of virtual nodes each worker projects onto the
// ring. 64 keeps per-worker shard sizes within a few percent of even for
// the fleet sizes this coordinator targets (single digits to tens).
const vnodes = 64

// ringPoint is one virtual node: a position on the hash circle and the
// worker that owns it.
type ringPoint struct {
	pos uint64
	id  string
}

// ring is a consistent-hash ring over worker IDs. It is not
// concurrency-safe; the Coordinator guards it with its own mutex.
type ring struct {
	points []ringPoint // sorted by pos
}

// mix64 is the splitmix64 finalizer. FNV-1a alone disperses poorly when
// inputs differ only in their last bytes (each trailing byte gets just
// one multiply, so sequential suffixes land within a narrow band of the
// circle); the finalizer avalanches every input bit across the word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash64 positions a key on the circle (FNV-1a, finalized).
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// add projects id's virtual nodes onto the ring. Adding a present member
// is a no-op.
func (r *ring) add(id string) {
	for _, p := range r.points {
		if p.id == id {
			return
		}
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	base := h.Sum64()
	for i := 0; i < vnodes; i++ {
		// Golden-ratio stride before the finalizer spreads the virtual
		// nodes of one worker uniformly over the circle.
		pos := mix64(base + uint64(i)*0x9e3779b97f4a7c15)
		r.points = append(r.points, ringPoint{pos: pos, id: id})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].pos < r.points[j].pos })
}

// remove drops id's virtual nodes. Removing an absent member is a no-op.
func (r *ring) remove(id string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// owner returns the worker owning key: the first virtual node clockwise
// of the key's position, wrapping past zero. Empty ring returns "".
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	pos := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id
}

// size returns the number of distinct members.
func (r *ring) size() int { return len(r.points) / vnodes }
