package sim

import (
	"sync"

	"bimodal/internal/workloads"
)

// poolKey identifies one reusable simulator geometry: the scheme, the mix
// and the run shape. Seed and Workers are deliberately excluded — Reset
// re-seeds everything in place and Workers never shapes a Sim — so a seed
// sweep over one cell recycles a single simulator instead of building one
// per seed. A key mismatch only costs a fresh construction, never
// correctness.
type poolKey struct {
	scheme string
	mix    string
	opts   Options
}

// newPoolKey derives the idle-list key for a run.
func newPoolKey(scheme string, mix workloads.Mix, o Options) poolKey {
	o = o.normalize()
	o.Seed = 0
	o.Workers = 0
	return poolKey{scheme: scheme, mix: mix.Name, opts: o}
}

// RunPool recycles fully-constructed simulators — schemes, cores,
// generators and statistics — across runs. Construction dominates short
// runs (metadata arrays for multi-megabyte caches, per-core generators),
// so drawing a pooled Sim and re-initializing it in place with Reset turns
// the per-run cost into a handful of array clears. The pool is safe for
// concurrent use and retains at most max idle simulators in total, across
// all keys: when a Put finds it full, the longest-idle one is dropped.
//
// Usage: Get a Sim keyed by a stable scheme identifier (the registry
// scheme name), run it, then Put it back. A Sim obtained from Get must not
// be used after Put returns it to the pool.
type RunPool struct {
	mu  sync.Mutex
	max int
	// idle holds the simulators Put back, oldest first.
	idle []*Sim

	hits   int64
	misses int64
}

// DefaultPoolSize bounds retained simulators when NewRunPool is given a
// non-positive max.
const DefaultPoolSize = 8

// NewRunPool builds a pool retaining at most max idle simulators across
// all geometry keys (DefaultPoolSize when max <= 0).
func NewRunPool(max int) *RunPool {
	if max <= 0 {
		max = DefaultPoolSize
	}
	return &RunPool{max: max, idle: make([]*Sim, 0, max)}
}

// Get returns a ready-to-run Sim for (mix, factory, o), reusing a pooled
// simulator with the same geometry when one is idle and falling back to
// NewSim otherwise. scheme must be a stable identifier for what factory
// builds (the registry scheme name): it keys the pool, so two different
// factories must never share a scheme string with equal mix and options.
// The returned Sim behaves byte-identically to NewSim(mix, factory, o).
func (p *RunPool) Get(scheme string, mix workloads.Mix, factory Factory, o Options) *Sim {
	k := newPoolKey(scheme, mix, o)
	if s := p.take(k, mix, o); s != nil {
		return s
	}
	return p.build(k, mix, factory, o)
}

// take resets and returns the most recently Put idle simulator under k,
// counting a hit, or returns nil (counting nothing) when none is idle or
// it declines the Reset.
func (p *RunPool) take(k poolKey, mix workloads.Mix, o Options) *Sim {
	p.mu.Lock()
	var s *Sim
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].key == k {
			s = p.idle[i]
			copy(p.idle[i:], p.idle[i+1:])
			p.idle[len(p.idle)-1] = nil
			p.idle = p.idle[:len(p.idle)-1]
			break
		}
	}
	p.mu.Unlock()
	if s == nil || !s.Reset(mix, o) {
		return nil
	}
	p.mu.Lock()
	p.hits++
	p.mu.Unlock()
	return s
}

// build constructs a fresh pooled simulator under k, counting a miss.
func (p *RunPool) build(k poolKey, mix workloads.Mix, factory Factory, o Options) *Sim {
	p.mu.Lock()
	p.misses++
	p.mu.Unlock()
	s := NewSim(mix, factory, o)
	s.key = k
	s.pooled = true
	return s
}

// Put returns a Sim obtained from Get to the pool for reuse, dropping the
// longest-idle simulator when the pool is full. Simulators built directly
// with NewSim are dropped for the garbage collector. Put is nil-safe.
func (p *RunPool) Put(s *Sim) {
	if s == nil || !s.pooled {
		return
	}
	p.mu.Lock()
	if len(p.idle) == p.max {
		copy(p.idle, p.idle[1:])
		p.idle = p.idle[:len(p.idle)-1]
	}
	p.idle = append(p.idle, s)
	p.mu.Unlock()
}

// Stats reports how many Gets were served by in-place reuse (hits) versus
// fresh construction (misses), for observability and tests.
func (p *RunPool) Stats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}
