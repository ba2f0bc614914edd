package cpu

import (
	"runtime"
	"sync"

	"bimodal/internal/trace"
)

// Trace read-ahead (DESIGN.md section 15). A core's access stream depends
// only on its generator, never on the simulated memory system, so the
// accesses a phase is certain to draw can be generated on a spare CPU
// while the engine simulates the earlier ones. A phase of quota accesses
// per core primes every core once when it starts and once after each of
// its quota counted steps, so quota+1 draws are guaranteed: that is the
// guaranteed region, and it is all read-ahead ever generates. The
// uncounted tail — how long a finished core keeps running depends on the
// other cores — is drawn inline, after the last fill has been consumed.
// The generator therefore never runs ahead of the engine at a phase
// boundary, and snapshots, Reset and every result byte are exactly those
// of inline generation.

// chunkLen is the number of accesses one fill generates. Phases whose
// guaranteed region fits in one chunk stay inline.
const chunkLen = 2048

// chunk is one read-ahead buffer (32 KB; Access is 16 bytes).
type chunk [chunkLen]trace.Access

// chunkList is a free list of read-ahead buffers.
type chunkList struct {
	mu   sync.Mutex
	free []*chunk
}

// chunks is the process-wide free list. A core takes two buffers when a
// phase starts reading ahead and returns them when the phase ends, so
// once the list has grown to the process's peak demand a fresh engine
// allocates none, and an idle pooled engine holds none.
var chunks chunkList

// get takes a buffer, allocating when the list is empty.
func (l *chunkList) get() *chunk {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return new(chunk) //bmlint:allow alloc — grows the free list to peak demand once per process
	}
	b := l.free[n-1]
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return b
}

// put returns a buffer to the list.
func (l *chunkList) put(b *chunk) {
	l.mu.Lock()
	l.free = append(l.free, b)
	l.mu.Unlock()
}

// helpers feeds fills to the process-wide helper goroutines, started on
// first use: GOMAXPROCS-1 of them, and none when GOMAXPROCS is 1. jobs is
// then nil, and every fill runs inline on the engine's goroutine. Helpers
// live as long as the process: they hold nothing between fills, so
// nothing needs to stop them or wait for them.
var helpers struct {
	once sync.Once
	jobs chan *readAhead
}

// helperQueue bounds the fills waiting for a helper. A core has at most
// one fill queued, so 64 entries cover eight 8-core cells reading ahead at
// once; a fill that finds the queue full runs inline instead of blocking
// the engine.
const helperQueue = 64

// startHelpers starts the helper goroutines.
func startHelpers() {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 1 {
		return
	}
	helpers.jobs = make(chan *readAhead, helperQueue)
	for i := 0; i < n; i++ {
		go fillLoop(helpers.jobs)
	}
}

// fillLoop is one helper: it runs submitted fills for the life of the
// process.
func fillLoop(jobs <-chan *readAhead) {
	for ra := range jobs {
		ra.fill.Fill(ra.back)
		ra.wg.Done()
	}
}

// readAhead is one core's read-ahead state. Outside a phase that reads
// ahead it holds no buffers and cur is empty, so prime draws inline.
type readAhead struct {
	// fill is the core's generator when it implements trace.Filler, nil
	// otherwise (such cores always draw inline).
	fill trace.Filler
	// bufs back cur (bufs[0]) and back (bufs[1]) while a phase reads
	// ahead; both nil otherwise.
	bufs [2]*chunk
	// cur is the chunk prime draws from; pos indexes its next access.
	cur []trace.Access
	pos int
	// back is the next chunk, being filled while busy.
	back []trace.Access
	// todo counts guaranteed accesses not yet handed to a fill.
	todo int64
	// busy marks a fill of back in flight: wg is held until it is done,
	// and nothing else may touch back or the generator meanwhile.
	busy bool
	wg   sync.WaitGroup
}

// start begins read-ahead for a phase in which the core is certain to
// draw n accesses. The first chunk is needed at once and is filled
// inline; the next goes to a helper.
//
//bmlint:hotpath
func (ra *readAhead) start(n int64) {
	if ra.fill == nil || n <= chunkLen {
		return
	}
	helpers.once.Do(startHelpers)
	ra.bufs[0], ra.bufs[1] = chunks.get(), chunks.get()
	ra.cur, ra.pos = ra.bufs[0][:], 0
	ra.fill.Fill(ra.cur)
	ra.todo = n - chunkLen
	ra.submit()
}

// submit hands the next run of the guaranteed region to a helper, or
// fills it inline when there is no helper or the queue is full.
//
//bmlint:hotpath
func (ra *readAhead) submit() {
	n := min(ra.todo, chunkLen)
	ra.todo -= n
	ra.back = ra.bufs[1][:n]
	ra.busy = true
	ra.wg.Add(1)
	select {
	case helpers.jobs <- ra:
	default:
		ra.fill.Fill(ra.back)
		ra.wg.Done()
	}
}

// advance is prime's slow path when cur is spent and a fill is in flight:
// wait for it, make it the current chunk, submit the next run into the
// spent buffer, and return the new chunk's first access.
//
//bmlint:hotpath
func (ra *readAhead) advance() trace.Access {
	ra.wg.Wait()
	ra.busy = false
	ra.bufs[0], ra.bufs[1] = ra.bufs[1], ra.bufs[0]
	ra.cur, ra.pos, ra.back = ra.back, 1, nil
	if ra.todo > 0 {
		ra.submit()
	}
	return ra.cur[0]
}

// stop ends a phase's read-ahead and returns its buffers. After a
// completed phase the engine has drawn the whole guaranteed region, so no
// fill may be in flight and the last chunk must be spent: the seam
// invariant that puts the generator exactly at the engine's position. A
// cancelled phase waits for its in-flight fill instead.
//
//bmlint:hotpath
func (ra *readAhead) stop(cancelled bool) {
	if ra.bufs[0] == nil {
		return
	}
	if !cancelled && (ra.busy || ra.todo != 0 || ra.pos != len(ra.cur)) {
		panic("cpu: read-ahead outstanding at the end of a phase")
	}
	if ra.busy {
		ra.wg.Wait()
		ra.busy = false
	}
	chunks.put(ra.bufs[0])
	chunks.put(ra.bufs[1])
	ra.bufs = [2]*chunk{}
	ra.cur, ra.pos, ra.back, ra.todo = nil, 0, nil, 0
}

// mustBeIdle panics when read-ahead is still under way: snapshots and
// Reset see the generator only at a phase boundary.
func (ra *readAhead) mustBeIdle() {
	if ra.bufs[0] != nil {
		panic("cpu: read-ahead outstanding at the phase seam")
	}
}
