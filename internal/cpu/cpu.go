// Package cpu provides the trace-driven core timing model and the
// multi-core engine that drives DRAM cache schemes.
//
// Each core replays its benchmark's access stream (LLSC misses) with an
// interval-style timing model: instruction gaps advance time at a base
// CPI, independent misses overlap up to the MSHR limit, and dependent
// accesses (pointer chases) serialize behind the previous miss. This is
// the substitution for the paper's GEM5 out-of-order cores: ANTT needs
// relative cycle counts, which this model provides while preserving the
// memory-level-parallelism differences between benchmark types.
package cpu

import (
	"context"
	"fmt"
	"time"

	"bimodal/internal/dramcache"
	"bimodal/internal/telemetry"
	"bimodal/internal/trace"
)

// CoreConfig parameterizes the core model.
type CoreConfig struct {
	// CPIBase is cycles per instruction when not stalled on the DRAM
	// cache (a 2-wide out-of-order core sustains ~0.5).
	CPIBase float64
	// MSHRs bounds outstanding misses per core.
	MSHRs int
	// ROBInsts is the reorder-buffer window: the core cannot retire past
	// an outstanding miss by more than this many instructions, so misses
	// farther apart than the window serialize (the interval-model
	// behaviour of an out-of-order core). 0 disables the limit.
	ROBInsts int64
}

// DefaultCoreConfig returns the model used throughout the evaluation
// (3.2GHz OOO core, Table IV class: 2-wide sustained, 192-entry ROB).
func DefaultCoreConfig() CoreConfig { return CoreConfig{CPIBase: 0.5, MSHRs: 8, ROBInsts: 192} }

// Validate reports a configuration error.
func (c CoreConfig) Validate() error {
	if c.CPIBase <= 0 {
		return fmt.Errorf("cpu: CPIBase must be positive")
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cpu: MSHRs must be positive")
	}
	return nil
}

// CoreResult summarizes one core's run.
type CoreResult struct {
	Core      int
	Benchmark string
	Cycles    int64
	Insts     int64
	Accesses  int64
	Reads     int64
	Hits      int64
	// LatencySum accumulates demand-read latencies observed by this core.
	LatencySum int64
}

// IPC returns instructions per cycle.
func (r CoreResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// TenantResult attributes one tenant's share of a core's (or engine's)
// counted traffic. Tenant IDs come from the trace.Interleaver weave; a
// single-tenant generator produces no attribution at all (the per-core
// CoreResult already is that tenant's result).
type TenantResult struct {
	Tenant     int
	Accesses   int64
	Reads      int64
	Hits       int64
	LatencySum int64
	// Insts counts the instruction gaps preceding this tenant's accesses —
	// the tenant's share of the core's replayed instructions.
	Insts int64
}

// tenantCounted is implemented by generators that weave multiple tenant
// streams (trace.Interleaver); the engine sizes per-tenant attribution
// from it.
type tenantCounted interface{ Tenants() int }

// DeltaTenants subtracts a warmup baseline from cumulative per-tenant
// totals, mirroring MeasureAfterWarmupContext's per-core subtraction.
// pre may be nil (no warmup); slices must otherwise be index-aligned.
func DeltaTenants(post, pre []TenantResult) []TenantResult {
	if len(post) == 0 {
		return nil
	}
	out := make([]TenantResult, len(post))
	copy(out, post)
	for i := range out {
		if i < len(pre) {
			out[i].Accesses -= pre[i].Accesses
			out[i].Reads -= pre[i].Reads
			out[i].Hits -= pre[i].Hits
			out[i].LatencySum -= pre[i].LatencySum
			out[i].Insts -= pre[i].Insts
		}
	}
	return out
}

// core is the per-core replay state.
type core struct {
	// id and cfg are construction-time identity; the snapshot seam
	// reconstructs cores congruently, so neither is serialized.
	id   int //bmlint:nosnapshot
	gen  trace.Generator
	cfg  CoreConfig //bmlint:resetconst //bmlint:nosnapshot
	time int64
	// outstanding in-flight misses ordered by issue: done is the memory
	// completion time, inst the instruction count at issue (for the ROB
	// window). outHead indexes the oldest live miss — popping advances the
	// head instead of re-slicing, so the backing array's full capacity
	// stays reusable and steady-state insertion never reallocates.
	outstanding []inflight
	outHead     int
	lastDone    int64
	insts       int64 // total instructions replayed (incl. uncounted)
	result      CoreResult
	// tens attributes counted traffic to tenant streams when the core's
	// generator weaves multiple tenants (empty otherwise). Sized once at
	// construction from the generator's Tenants().
	tens []TenantResult
	// remaining/quota/next/key are phase-boundary non-state: runPhase
	// re-primes every core when a phase starts, overwriting them before
	// first use (see the seam note at the top of snapshot.go). remaining
	// counts the accesses left to the core's current quota, the index quota
	// names in the phase's list.
	remaining int64 //bmlint:nosnapshot
	quota     int   //bmlint:nosnapshot
	// next is the primed upcoming access; key is its projected issue time
	// (the heap priority, so requests reach memory in global time order).
	next trace.Access //bmlint:nosnapshot
	key  int64        //bmlint:nosnapshot
	// ra generates the core's accesses ahead on a helper (readahead.go).
	// The snapshot seam rewinds the generator to the engine's position and
	// drops it, so it is not state either.
	ra readAhead //bmlint:nosnapshot
}

// inflight is one outstanding miss.
type inflight struct {
	done int64
	inst int64
}

// prime draws the upcoming access and computes its exact issue time (the
// scheduler key). All stall sources — the instruction gap, a dependence on
// the previous miss, a full MSHR file, the ROB window — are resolved here,
// so requests reach the memory system in strictly non-decreasing time
// order across cores (the busy-time DRAM model requires monotonic
// arrivals).
//
//bmlint:hotpath
func (c *core) prime() {
	if ra := &c.ra; uint(ra.pos) < uint(len(ra.cur)) {
		c.next = ra.cur[ra.pos]
		ra.pos++
	} else if ra.busy {
		c.next = ra.advance()
	} else if ra.rec != nil {
		c.next = ra.tail()
	} else {
		c.next = c.gen.Next()
	}
	t := c.time + int64(float64(c.next.Gap)*c.cfg.CPIBase)
	instNow := c.insts + int64(c.next.Gap)
	if c.next.Dep && c.lastDone > t {
		t = c.lastDone
	}
	// ROB window: the core cannot issue an access more than ROBInsts
	// instructions past a still-outstanding miss — it stalls until that
	// miss returns. This is what serializes far-apart misses on a real
	// out-of-order core.
	if c.cfg.ROBInsts > 0 {
		for c.outHead < len(c.outstanding) && instNow-c.outstanding[c.outHead].inst >= c.cfg.ROBInsts {
			if c.outstanding[c.outHead].done > t {
				t = c.outstanding[c.outHead].done
			}
			c.outHead++
		}
	}
	// Retire completed misses; a full MSHR file stalls until the oldest
	// in-flight miss returns.
	for c.outHead < len(c.outstanding) && c.outstanding[c.outHead].done <= t {
		c.outHead++
	}
	if len(c.outstanding)-c.outHead >= c.cfg.MSHRs {
		t = c.outstanding[c.outHead].done
		c.outHead++
	}
	c.key = t
}

// step replays the primed access against the scheme at the issue time
// prime computed. It returns true when this access completed the core's
// current quota; past its phase's last quota the core's results freeze
// and execution continues uncounted.
//
//bmlint:hotpath
func (c *core) step(s dramcache.Scheme, pf *Prefetcher) bool {
	a := c.next
	c.time = c.key
	counted := c.remaining > 0
	if counted {
		c.result.Insts += int64(a.Gap)
	}

	req := dramcache.Request{Addr: a.Addr, Write: a.Write, Core: c.id}
	res := s.Access(req, c.time)
	if counted {
		c.result.Accesses++
		if res.Hit {
			c.result.Hits++
		}
		if !a.Write {
			c.result.Reads++
			c.result.LatencySum += res.Done - c.time
		}
		if len(c.tens) > 0 && int(a.Tenant) < len(c.tens) {
			t := &c.tens[a.Tenant]
			t.Insts += int64(a.Gap)
			t.Accesses++
			if res.Hit {
				t.Hits++
			}
			if !a.Write {
				t.Reads++
				t.LatencySum += res.Done - c.time
			}
		}
	}
	c.insts += int64(a.Gap)
	if !a.Write {
		c.insertOutstanding(res.Done)
		c.lastDone = res.Done
	}
	if pf != nil {
		pf.onAccess(s, a, c.id, c.time)
	}
	if counted {
		c.remaining--
		return c.remaining == 0
	}
	return false
}

// insertOutstanding appends the miss in issue order (the ROB retires in
// order, so the oldest-issued miss is the binding one for both the ROB
// window and the MSHR stall). When the buffer is full but has a drained
// head, the live tail is copied down so the backing array is reused — the
// queue reaches a steady capacity (bounded by the MSHR file) after the
// first few insertions and never reallocates again.
//
//bmlint:hotpath
func (c *core) insertOutstanding(done int64) {
	if len(c.outstanding) == cap(c.outstanding) && c.outHead > 0 {
		n := copy(c.outstanding, c.outstanding[c.outHead:])
		c.outstanding = c.outstanding[:n]
		c.outHead = 0
	}
	c.outstanding = append(c.outstanding, inflight{done: done, inst: c.insts})
}

// finish drains in-flight misses into the final cycle count.
func (c *core) finish() { c.result.Cycles = c.finishTime() }

// finishTime is the cycle count finish would record now: the core's clock
// or its last in-flight miss, whichever ends later.
func (c *core) finishTime() int64 {
	t := c.time
	for _, m := range c.outstanding[c.outHead:] {
		if m.done > t {
			t = m.done
		}
	}
	return t
}

// reset returns the core to its just-constructed replay state, keeping
// the generator binding and the outstanding buffer's capacity. The
// generator itself is reseeded separately (Engine.Reset).
//
//bmlint:hotpath
func (c *core) reset() {
	c.ra.drop()
	c.ra.replayed = 0
	c.time = 0
	c.outstanding = c.outstanding[:0]
	c.outHead = 0
	c.lastDone = 0
	c.insts = 0
	c.result = CoreResult{Core: c.id, Benchmark: c.gen.Name()}
	for i := range c.tens {
		c.tens[i] = TenantResult{Tenant: i}
	}
	c.remaining = 0
	c.quota = 0
	c.next = trace.Access{}
	c.key = 0
}

// before orders cores by (issue time, core id). The tie-break makes this
// a total order, so the scheduler's dispatch sequence is a pure function
// of the pending keys — never of internal heap arrangement — which is
// exactly the property that lets batched dispatch skip the push/pop pair
// while remaining byte-identical to one-at-a-time dispatch.
//
//bmlint:hotpath
func (c *core) before(o *core) bool {
	return c.key < o.key || (c.key == o.key && c.id < o.id)
}

// Engine drives a set of cores against one scheme.
type Engine struct {
	cores []*core
	// scheme is bound at construction; pooled runs reset it separately
	// through the dramcache Resetter seam (sim.Sim owns that call).
	scheme dramcache.Scheme //bmlint:resetconst
	pf     *Prefetcher
	// sched is the dispatch min-heap, owned by the engine and reused
	// across phases and pooled runs so runPhase never reallocates it.
	// Transient within a phase — always empty at the snapshot seam.
	sched []*core //bmlint:nosnapshot
	// caps and capT are RunEachContext's capture buffers: each core's
	// results as it completes quota k at caps[k*len(cores)+core], and the
	// tenant totals at quota k at capT[k*tenants+tenant]. Sized before a
	// phase and reused across phases and pooled runs; their contents never
	// outlive one phase.
	caps []CoreResult   //bmlint:resetconst //bmlint:nosnapshot
	capT []TenantResult //bmlint:resetconst //bmlint:nosnapshot
	// drawn counts the accesses the cores drew in the phases completed
	// since Reset (Draws), and moved marks an engine that has begun a
	// phase or restored state since NewEngine or Reset, whose generators
	// therefore no longer stand at their streams' starts. Both describe
	// this engine's own history, so neither is state.
	drawn int64 //bmlint:nosnapshot
	moved bool  //bmlint:nosnapshot
}

// NewEngine builds an engine. gens supplies one generator per core; a
// generator that implements trace.Filler is read ahead (readahead.go), so
// it must not share state with another core's generator. A caller that
// runs no further phase should call ReleaseReadAhead.
func NewEngine(scheme dramcache.Scheme, gens []trace.Generator, cfg CoreConfig, pf *Prefetcher) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{scheme: scheme, pf: pf, sched: make([]*core, 0, len(gens))}
	// Every core's in-flight window holds at most MSHRs live misses plus
	// the drained head insertOutstanding compacts away, so one backing
	// array sized up front serves all cores without ever growing.
	win := cfg.MSHRs + 1
	windows := make([]inflight, len(gens)*win)
	for i, g := range gens {
		c := &core{
			id:          i,
			gen:         g,
			cfg:         cfg,
			outstanding: windows[i*win : i*win : (i+1)*win],
			result: CoreResult{
				Core:      i,
				Benchmark: g.Name(),
			},
		}
		c.ra.fill, _ = g.(trace.Filler)
		if tc, ok := g.(tenantCounted); ok && tc.Tenants() > 1 {
			c.tens = make([]TenantResult, tc.Tenants())
			for t := range c.tens {
				c.tens[t].Tenant = t
			}
		}
		e.cores = append(e.cores, c)
	}
	return e
}

// push inserts c into the dispatch heap (standard binary-heap sift-up,
// specialized to *core — no interface boxing).
//
//bmlint:hotpath
func (e *Engine) push(c *core) {
	h := append(e.sched, c)
	e.sched = h
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the scheduling minimum (sift-down specialized
// to *core).
//
//bmlint:hotpath
func (e *Engine) pop() *core {
	h := e.sched
	n := len(h) - 1
	c := h[0]
	h[0] = h[n]
	h = h[:n]
	e.sched = h
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].before(h[j]) {
			j++
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return c
}

// Reset returns the engine to its just-constructed state for a new run:
// every core's read-ahead is dropped (after waiting for a fill in flight)
// and its replay state zeroed in place, its generator reseeded
// with the matching entry of seeds (one per core — workloads.CoreSeed
// derivation is the caller's job), and the prefetcher filters cleared.
// It reports false, leaving the engine untouched, when the seed count
// does not match; the caller must then rebuild the engine instead.
// (Every trace.Generator reseeds in place — Reset is part of the
// interface contract — so a matching seed count always succeeds.)
//
//bmlint:hotpath
func (e *Engine) Reset(seeds []uint64) bool {
	if len(seeds) != len(e.cores) {
		return false
	}
	for i, c := range e.cores {
		c.reset()
		c.gen.Reset(seeds[i])
	}
	// The dispatch heap is drained by runPhase, but truncate it here too so
	// a reset engine is observably identical to a freshly constructed one
	// even if the previous run was abandoned mid-phase.
	e.sched = e.sched[:0]
	e.drawn, e.moved = 0, false
	if e.pf != nil {
		e.pf.Reset()
	}
	return true
}

// Record makes core i keep the accesses it draws in r, for the cores of
// other engines that draw the same stream to replay (readahead.go): the
// core draws through r's buffer, filled inline as its phases need it, up to
// chunkLen accesses, and then on as before. r completes when its buffer is
// full or when ReleaseReadAhead ends the run. Call it on an engine fresh
// from NewEngine or Reset, before its first phase. It reports false,
// recording nothing, when the core's generator is not a trace.Filler.
func (e *Engine) Record(i int, r *Recording) bool {
	c := e.cores[i]
	if c.ra.fill == nil {
		return false
	}
	e.mustBeFresh(c)
	c.ra.record(r)
	return true
}

// Replay makes core i draw the complete recording r first and then go on
// exactly where r's recorder's generator stood after it, so the core
// draws what its own generator would have. r must record the stream core
// i's generator draws: the same benchmark or tenant composition, core
// slot and seed (workloads.Mix.Stream). Call it on an engine fresh from
// NewEngine or Reset, before its first phase; r must stay unreleased until
// the engine has been Reset or dropped, or has ended its run with
// ReleaseReadAhead. It reports false, replaying nothing, when the core's
// generator is not a trace.Filler.
func (e *Engine) Replay(i int, r *Recording) bool {
	c := e.cores[i]
	if c.ra.fill == nil {
		return false
	}
	if !r.done {
		panic("cpu: replaying a recording that is not complete")
	}
	e.mustBeFresh(c)
	c.ra.replay(r)
	return true
}

// mustBeFresh panics unless core c's generator stands at its stream's
// start: the engine has run no phase and restored nothing since it was
// built or Reset.
func (e *Engine) mustBeFresh(c *core) {
	if e.moved || c.ra.bufs[0] != nil {
		panic("cpu: Record and Replay need an engine that has run no phase or restore since NewEngine or Reset")
	}
}

// Draws reports how many accesses the cores drew in the phases completed
// since NewEngine or Reset, the discarded primes at phase ends included,
// and how many of those came from replayed recordings. The two differ by
// what the cores' own generators produced for them.
func (e *Engine) Draws() (drawn, replayed int64) {
	for _, c := range e.cores {
		replayed += c.ra.replayed
		if c.ra.replaying {
			replayed += int64(c.ra.pos)
		}
	}
	return e.drawn, replayed
}

// Scheme returns the scheme the engine drives.
func (e *Engine) Scheme() dramcache.Scheme { return e.scheme }

// ctxCheckInterval is how many replayed accesses pass between context
// checks in the tick loop. Coarse on purpose: one access is ~400-700 ns
// of host work, so cancellation takes 3-6 ms while the hot loop pays one
// cheap Err() call per interval.
const ctxCheckInterval = 8192

// RunEachContext runs one measured phase toward quotas, counted accesses
// per core, which must ascend strictly from a positive first. A core that
// reaches the last quota freezes its results but continues executing
// (uncounted) until every core has finished, exactly as the paper's
// methodology keeps finished cores running to preserve shared-resource
// contention; keeping all cores in flight also keeps their clocks
// synchronized, which the busy-time DRAM model requires. It calls each(k,
// per, tens) as the phase passes quotas[k], that is when the last core
// completes its quotas[k]-th counted access, before any further access.
// per holds every core's results as of its own quotas[k]-th access, cycles
// as finish records them, and tens the per-tenant totals over those points
// (as TenantTotals, empty without tenants); both are cumulative, and alias
// engine buffers valid only during the call. The phase checks ctx every
// ctxCheckInterval accesses; a cancelled ctx or an error from each ends
// it, and RunEachContext returns that error.
//
// Counting toward a quota changes what a core counts, never what the
// engine simulates: finished cores keep running either way, and counted
// feeds only the core's results, tenants and remaining count. So when the
// phase passes quotas[k], the scheme, its statistics and every core's
// results are exactly those at the end of a phase toward quotas[k] alone
// on an identical engine: a shorter phase is a prefix of a longer one.
func (e *Engine) RunEachContext(ctx context.Context, quotas []int64, each func(k int, per []CoreResult, tens []TenantResult) error) error {
	for k, q := range quotas {
		if q <= 0 || k > 0 && q <= quotas[k-1] {
			panic("cpu: quotas must ascend strictly from a positive first")
		}
	}
	if len(quotas) == 0 {
		return nil
	}
	n := len(quotas) * len(e.cores)
	if cap(e.caps) < n {
		e.caps = make([]CoreResult, n)
	}
	e.caps = e.caps[:n]
	nt := e.tenants()
	if cap(e.capT) < len(quotas)*nt {
		e.capT = make([]TenantResult, len(quotas)*nt)
	}
	e.capT = e.capT[:len(quotas)*nt]
	for i := range e.capT {
		e.capT[i] = TenantResult{Tenant: i % nt}
	}
	return e.runPhase(ctx, quotas, measureRate, each)
}

// Phase throughput histograms, resolved once at package init: building
// the label string and taking the registry lock per completed phase cost
// an allocation and a lock acquisition per run, which pooled sweeps pay
// at kHz phase-completion rates.
var (
	warmupRate = telemetry.Default.Histogram(
		`bimodal_sim_accesses_per_second{phase="warmup"}`, telemetry.RateBuckets()...)
	measureRate = telemetry.Default.Histogram(
		`bimodal_sim_accesses_per_second{phase="measure"}`, telemetry.RateBuckets()...)
)

// observeRate records a phase's replay throughput into its precomputed
// histogram, one observation per completed phase. Wall-clock is
// observability only — it never feeds back into simulated time.
func observeRate(h *telemetry.Histogram, steps int64, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if steps == 0 || secs <= 0 {
		return
	}
	h.Observe(float64(steps) / secs)
}

// dispatchBatch bounds how many consecutive accesses one core may issue
// per scheduler turn. While a re-primed core remains the strict dispatch
// minimum it keeps stepping without touching the heap (the Sniper /
// Ramulator batch-controller pattern); the cap bounds a turn so the
// context check cadence and heap fairness stay predictable.
const dispatchBatch = 64

// runPhase runs one phase toward quotas (ascending; a zero quota only
// alone), tagged with a phase histogram for throughput telemetry (warmup
// vs measure). Each core counts its accesses toward quotas[c.quota]; when
// it completes one, it moves on to the next, and past the last it keeps
// running uncounted. The phase passes a quota when the last core
// completes it, ends when it passes the last one, and calls each (when
// not nil, with the capture buffers RunEachContext sized) at every pass.
// The quota bookkeeping runs only when step reports a completed quota, so
// its per-access cost is step's remaining == 0 test.
//
// Dispatch is batched: because the scheduler orders cores by the (key,
// id) total order, "this core is before the heap root" is exactly "this
// core is the global minimum", so skipping the push/pop pair while that
// holds replays the identical access sequence one-at-a-time dispatch
// would.
//
//bmlint:hotpath
func (e *Engine) runPhase(ctx context.Context, quotas []int64, phaseHist *telemetry.Histogram, each func(k int, per []CoreResult, tens []TenantResult) error) error {
	start := telemetry.Now() //bmlint:wallclock — phase throughput telemetry only
	e.sched = e.sched[:0]
	e.moved = true
	last := quotas[len(quotas)-1]
	for _, c := range e.cores {
		c.ra.mustBeCurrent()
		c.quota = 0
		c.remaining = quotas[0]
		if last > 0 {
			c.ra.start(last + 1) // the guaranteed region
			c.prime()
			e.push(c)
		} else {
			c.finish()
		}
	}
	// passed counts the quotas the phase has passed, behind the cores that
	// have yet to complete quotas[passed]; nt is the tenant stride of capT.
	passed, behind := 0, len(e.cores)
	if last == 0 || behind == 0 {
		passed = len(quotas)
	}
	nt := 0
	if each != nil {
		nt = len(e.capT) / len(quotas)
	}
	var steps int64
	for passed < len(quotas) {
		c := e.pop()
		for batch := 0; ; batch++ {
			if steps%ctxCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					e.syncReadAhead()
					return err
				}
			}
			steps++
			if c.step(e.scheme, e.pf) {
				k := c.quota
				c.quota++
				if each != nil {
					e.capture(c, k, nt)
				}
				if c.quota < len(quotas) {
					c.remaining = quotas[c.quota] - quotas[k]
				} else {
					c.finish()
				}
				if k == passed {
					if behind--; behind == 0 {
						if each != nil {
							n := len(e.cores)
							if err := each(k, e.caps[k*n:(k+1)*n], e.capT[k*nt:(k+1)*nt]); err != nil {
								e.syncReadAhead()
								return err
							}
						}
						passed++
						behind = e.behind(passed)
					}
				}
			}
			c.prime()
			if passed == len(quotas) {
				break
			}
			if batch+1 >= dispatchBatch || (len(e.sched) > 0 && !c.before(e.sched[0])) {
				break
			}
		}
		if passed == len(quotas) {
			break
		}
		e.push(c)
	}
	for _, c := range e.cores {
		c.ra.end()
	}
	if last > 0 {
		e.drawn += steps + int64(len(e.cores))
	}
	observeRate(phaseHist, steps, telemetry.Since(start)) //bmlint:wallclock
	return nil
}

// capture records core c's results as it completes quota k: its counters
// with the cycles finish would record now, and its tenants' attribution
// added into quota k's totals (nt tenants per quota).
func (e *Engine) capture(c *core, k, nt int) {
	r := c.result
	r.Cycles = c.finishTime()
	e.caps[k*len(e.cores)+c.id] = r
	tot := e.capT[k*nt : (k+1)*nt]
	for i, t := range c.tens {
		tot[i].Accesses += t.Accesses
		tot[i].Reads += t.Reads
		tot[i].Hits += t.Hits
		tot[i].LatencySum += t.LatencySum
		tot[i].Insts += t.Insts
	}
}

// behind counts the cores that have yet to complete quota index k.
func (e *Engine) behind(k int) int {
	n := 0
	for _, c := range e.cores {
		if c.quota <= k {
			n++
		}
	}
	return n
}

// syncReadAhead puts every core's generator back at the engine's position
// when a phase ends early.
func (e *Engine) syncReadAhead() {
	for _, c := range e.cores {
		c.ra.sync()
	}
}

// ReleaseReadAhead hands every core's read-ahead buffers back to the
// process-wide free list, after waiting for the fills in flight, and
// completes the recordings in progress. Call it once the engine will run
// no further phase before Reset or RestoreState, so that a finished or
// idle pooled engine holds no buffers. It does not rewind: a generator
// read ahead of its core stays ahead, and the engine then panics on any
// phase or SnapshotState until Reset or RestoreState.
//
//bmlint:hotpath
func (e *Engine) ReleaseReadAhead() {
	for _, c := range e.cores {
		c.ra.complete()
		c.ra.stale = c.ra.drop()
	}
}

// WarmupContext runs the warmup window only and returns the cumulative
// per-core results at its exit — the baseline the measured window is
// later reported against. Scheme statistics keep counting until
// MeasureAfterWarmupContext resets them; cache state stays warm (the
// paper's fast-forward methodology). An engine may be snapshotted at
// exactly this point (see SnapshotState): measuring after a restore
// replays the measured window of the uninterrupted engine identically.
func (e *Engine) WarmupContext(ctx context.Context, warmup int64) ([]CoreResult, error) {
	return e.AppendWarmup(ctx, make([]CoreResult, 0, len(e.cores)), warmup)
}

// AppendWarmup is WarmupContext appending the baseline to dst, so a caller
// that keeps its baseline reuses its array. On error it returns dst as it
// was.
func (e *Engine) AppendWarmup(ctx context.Context, dst []CoreResult, warmup int64) ([]CoreResult, error) {
	if err := e.runPhase(ctx, []int64{warmup}, warmupRate, nil); err != nil {
		return dst, err
	}
	return e.AppendCumulativeResults(dst), nil
}

// MeasureAfterWarmupContext resets scheme statistics (cache state stays
// warm) and runs the measured window, reporting it relative to pre — the
// cumulative results WarmupContext returned, or CumulativeResults() on an
// engine restored from a warmup snapshot.
func (e *Engine) MeasureAfterWarmupContext(ctx context.Context, measure int64, pre []CoreResult) ([]CoreResult, error) {
	e.scheme.ResetStats()
	if err := e.runPhase(ctx, []int64{measure}, measureRate, nil); err != nil {
		return nil, err
	}
	out := make([]CoreResult, len(e.cores))
	for i, c := range e.cores {
		out[i] = c.result.minus(pre[i])
	}
	return out, nil
}

// minus returns r's counters less a warmup baseline's, keeping r's
// identity (core and benchmark).
func (r CoreResult) minus(pre CoreResult) CoreResult {
	return CoreResult{
		Core:       r.Core,
		Benchmark:  r.Benchmark,
		Cycles:     r.Cycles - pre.Cycles,
		Insts:      r.Insts - pre.Insts,
		Accesses:   r.Accesses - pre.Accesses,
		Reads:      r.Reads - pre.Reads,
		Hits:       r.Hits - pre.Hits,
		LatencySum: r.LatencySum - pre.LatencySum,
	}
}

// DeltaResults subtracts a warmup baseline from cumulative per-core
// results, as MeasureAfterWarmupContext does, into a new slice. pre may
// be empty (no warmup): the results are then copied as they are.
func DeltaResults(post, pre []CoreResult) []CoreResult {
	out := make([]CoreResult, len(post))
	copy(out, post)
	for i := range pre {
		out[i] = post[i].minus(pre[i])
	}
	return out
}

// CumulativeResults returns each core's cumulative counters — the same
// values the last completed phase returned. After RestoreState this
// reconstructs the warmup baseline for MeasureAfterWarmupContext.
func (e *Engine) CumulativeResults() []CoreResult {
	return e.AppendCumulativeResults(make([]CoreResult, 0, len(e.cores)))
}

// AppendCumulativeResults appends CumulativeResults to dst and returns the
// extended slice, so a caller that keeps its baseline reuses its array.
func (e *Engine) AppendCumulativeResults(dst []CoreResult) []CoreResult {
	for _, c := range e.cores {
		dst = append(dst, c.result)
	}
	return dst
}

// TenantTotals aggregates per-tenant attribution across every core,
// indexed by tenant ID. It returns nil when no core weaves multiple
// tenants. Totals are cumulative (like CumulativeResults); subtract a
// warmup baseline with DeltaTenants.
func (e *Engine) TenantTotals() []TenantResult { return e.AppendTenantTotals(nil) }

// AppendTenantTotals appends TenantTotals to dst and returns the extended
// slice, so a caller that keeps its baseline reuses its array.
func (e *Engine) AppendTenantTotals(dst []TenantResult) []TenantResult {
	lo := len(dst)
	for i := range e.tenants() {
		dst = append(dst, TenantResult{Tenant: i})
	}
	out := dst[lo:]
	for _, c := range e.cores {
		for i, t := range c.tens {
			out[i].Accesses += t.Accesses
			out[i].Reads += t.Reads
			out[i].Hits += t.Hits
			out[i].LatencySum += t.LatencySum
			out[i].Insts += t.Insts
		}
	}
	return dst
}

// tenants is the number of tenants any core attributes to: the length of
// TenantTotals, 0 when no core weaves multiple tenants.
func (e *Engine) tenants() int {
	n := 0
	for _, c := range e.cores {
		n = max(n, len(c.tens))
	}
	return n
}

// ANTT computes the Average Normalized Turnaround Time of a
// multiprogrammed run against per-benchmark standalone runs:
// ANTT = (1/n) * sum(C_i^MP / C_i^SP). Lower is better.
func ANTT(multi, single []CoreResult) float64 {
	if len(multi) != len(single) || len(multi) == 0 {
		panic("cpu: ANTT needs matching non-empty result sets")
	}
	sum := 0.0
	for i := range multi {
		if single[i].Cycles == 0 {
			panic("cpu: standalone run with zero cycles")
		}
		sum += float64(multi[i].Cycles) / float64(single[i].Cycles)
	}
	return sum / float64(len(multi))
}
