package cpu

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bimodal/internal/telemetry"
	"bimodal/internal/trace"
)

// Trace read-ahead (DESIGN.md section 15). A core's access stream depends
// only on its generator, never on the simulated memory system, so it can be
// generated on a spare CPU while the engine simulates the earlier accesses.
// A phase of quota accesses per core primes every core once when it starts
// and once after each of its quota counted steps, so quota+1 draws are
// guaranteed: the guaranteed region. Read-ahead hands that region to fills
// chunk by chunk, on a helper when one takes the fill and inline
// otherwise. Past it lies the uncounted tail, whose length depends on when
// the other cores finish; read-ahead keeps going into it only while a
// helper takes the fill, so with no helper or a full queue the tail is
// drawn inline, as before read-ahead went past the guaranteed region.
//
// What was read ahead and not consumed when a phase ends carries over: the
// next phase draws it first. The generator is then ahead of the engine, so
// whoever fills a chunk marks the generator first (trace.Mark, kept with
// the chunk), and the operations that see the generator put it back.
// SnapshotState rewinds to the current chunk's mark and re-draws what the
// engine consumed of it; a cancelled phase does the same; Reset and
// RestoreState, which overwrite the generator, drop the read-ahead.
// ReleaseReadAhead hands the buffers back without rewinding, and an engine
// it leaves ahead refuses phases and snapshots until Reset or
// RestoreState. Every result and blob byte is that of inline generation.
//
// A recording is a carried chunk another engine drew. A core that records
// draws every access through one chunk, filled inline as the phases need
// it (the guaranteed region, then tailPiece accesses of the tail at a
// time), and keeps it: the chunk's mark is the stream's start, and when the
// chunk is full or the run ends the chunk's end mark takes where the
// generator stands, right after the last access filled. A core that replays
// the recording starts with its chunk as carried read-ahead and its
// generator rewound to that end mark, so every access it draws, inside the
// recording and past it, is the one its own generator would have drawn.
// Neither core ever fills or frees a recording's chunk (kept); the
// recording's owner frees it with Recording.Release.

// chunkLen is the number of accesses one fill generates. A phase whose
// guaranteed region fits in one chunk starts no read-ahead.
const chunkLen = 2048

// chunk is one read-ahead buffer and the mark its filler took just before
// filling it. The mark's storage travels with the buffer through the free
// list, so marking allocates nothing once the list's marks have seen the
// process's generators. The accesses are a separate 32 KB array (Access is
// 16 bytes), the largest size the allocator serves without rounding up to
// whole pages.
type chunk struct {
	acc  *[chunkLen]trace.Access
	mark trace.Mark
	// end is a recording's end mark; read-ahead leaves it alone.
	end trace.Mark
}

// tailPiece is how many accesses of a phase's uncounted tail a recording
// core fills at a time: small, so that a recorder generates at most this
// many accesses its run never draws.
const tailPiece = 64

// Recording is the start of one core's access stream, drawn once by a
// recording engine's core (Engine.Record) and replayed by the cores of
// other engines that draw the same stream (Engine.Replay). It holds at
// most chunkLen accesses in one buffer from the read-ahead free list, so
// recording allocates nothing once the list has grown. Its owner must
// Release it once no engine replays it any more; until then, once Done, it
// is read-only, and any number of engines may replay it at once.
type Recording struct {
	c    *chunk
	n    int
	done bool
}

// Done reports whether the recording is complete: its chunk filled up, or
// its recorder's run ended (Engine.ReleaseReadAhead) with the recording
// intact. Only a complete recording may be replayed. A phase cancelled, a
// snapshot taken or a Reset while the core was still recording abandons
// the recording, which then never completes.
func (r *Recording) Done() bool { return r.done }

// Release returns the recording's buffer to the free list and empties the
// recording.
func (r *Recording) Release() {
	if r.c != nil {
		chunks.put(r.c)
	}
	*r = Recording{}
}

// chunkList is a free list of read-ahead buffers.
type chunkList struct {
	mu   sync.Mutex
	free []*chunk
}

// chunks is the process-wide free list. A core takes two buffers when it
// starts reading ahead and returns them when its read-ahead is spent,
// dropped, rewound or handed back, so once the list has grown to the
// process's peak demand a fresh engine allocates none, and an idle pooled
// engine holds none.
var chunks chunkList

// get takes a buffer, allocating when the list is empty.
func (l *chunkList) get() *chunk {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return &chunk{acc: new([chunkLen]trace.Access)} //bmlint:allow alloc — grows the free list to peak demand once per process
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
// once; a guaranteed fill that finds the queue full runs inline instead of
// blocking the engine, and a speculative one does not run.
const helperQueue = 64

// Seam counters, process-wide: core phases that began with accesses read
// ahead in the previous phase, and rewinds that put a generator back at its
// engine's position.
var (
	carriedPhases = telemetry.Default.Counter("bimodal_readahead_carried_total")
	rewinds       = telemetry.Default.Counter("bimodal_readahead_rewinds_total")
)

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
		ra.fillBack()
		ra.filling.Store(false)
	}
}

// readAhead is one core's read-ahead state. While it holds no buffers cur
// is empty, and prime draws inline.
type readAhead struct {
	// fill is the core's generator when it implements trace.Filler, nil
	// otherwise (such cores always draw inline).
	fill trace.Filler
	// bufs back cur (bufs[0]) and back (bufs[1]) while the core reads
	// ahead; both nil otherwise.
	bufs [2]*chunk
	// cur is the chunk prime draws from; pos indexes its next access.
	cur []trace.Access
	pos int
	// back is the next chunk, filled or being filled while busy.
	back []trace.Access
	// todo counts the phase's guaranteed accesses not yet handed to a
	// fill.
	todo int64
	// busy marks back as handed to a fill that prime has not yet taken
	// over: nothing else may touch back, bufs[1] or the generator
	// meanwhile, and filling stays set until a helper's fill is done.
	busy    bool
	filling atomic.Bool
	// stale marks a generator that ReleaseReadAhead left ahead of the
	// engine: phases and snapshots panic until Reset or RestoreState.
	stale bool
	// rec is the recording the core is filling, bufs[0] its chunk; nil
	// when the core is not recording or the chunk is full.
	rec *Recording
	// kept marks bufs[0] as a recording's chunk, the core's own or one it
	// replays: the core reads it and rewinds to its mark, but never fills
	// or frees it. replaying marks a replayed one, and replayed counts the
	// accesses the core has drawn from recordings since Reset, less those
	// still in cur.
	kept, replaying bool
	replayed        int64
}

// start begins a phase in which the core is certain to draw n accesses.
// Accesses carried over from the previous phase, or replayed, come first
// and count toward n, and a recording core fills what is missing into its
// recording while the chunk has room; a fill goes to a helper only for
// what is left after that. Without carried accesses, a phase that fits in
// one chunk stays inline; otherwise the first chunk is needed at once and
// is filled inline, and the next goes to a helper.
//
//bmlint:hotpath
func (ra *readAhead) start(n int64) {
	if ra.fill == nil {
		return
	}
	if ra.bufs[0] != nil {
		ahead := int64(len(ra.cur) - ra.pos)
		if ra.busy {
			ahead += int64(len(ra.back))
		}
		if ahead > 0 {
			carriedPhases.Inc()
		}
		if ra.rec != nil && ahead < n {
			ahead += ra.grow(n - ahead)
		}
		ra.todo = max(n-ahead, 0)
		if !ra.busy && ra.todo > 0 {
			helpers.once.Do(startHelpers)
			if ra.bufs[1] == nil {
				ra.bufs[1] = chunks.get()
			}
			ra.submit()
		}
		return
	}
	if n <= chunkLen {
		return
	}
	helpers.once.Do(startHelpers)
	ra.bufs[0], ra.bufs[1] = chunks.get(), chunks.get()
	ra.cur, ra.pos = ra.bufs[0].acc[:], 0
	ra.fill.Mark(&ra.bufs[0].mark)
	ra.fill.Fill(ra.cur)
	ra.todo = n - chunkLen
	ra.submit()
}

// submit hands the next chunk to a helper: the next run of the guaranteed
// region, completed to a whole chunk from the tail beyond it. When no
// helper takes it, the guaranteed run is filled inline, and a fill that
// would be all tail is not made: the core then draws inline once cur is
// spent.
//
//bmlint:hotpath
func (ra *readAhead) submit() {
	n := min(ra.todo, chunkLen)
	ra.back = ra.bufs[1].acc[:]
	ra.busy = true
	ra.filling.Store(true)
	select {
	case helpers.jobs <- ra:
		ra.todo -= n
		return
	default:
		ra.filling.Store(false)
	}
	if n == 0 {
		ra.back, ra.busy = nil, false
		return
	}
	ra.back = ra.back[:n]
	ra.todo -= n
	ra.fillBack()
}

// fillBack marks the generator into back's chunk and fills back.
//
//bmlint:hotpath
func (ra *readAhead) fillBack() {
	ra.fill.Mark(&ra.bufs[1].mark)
	ra.fill.Fill(ra.back)
}

// wait returns once no helper fill is in flight. It polls and yields
// rather than blocking: a goroutine that blocks takes a runtime sudog,
// which the runtime allocates whenever its per-P and central caches run
// dry (every GC empties the central one), so a blocking wait made the
// process's allocation count depend on helper timing. A fill takes tens
// of microseconds, and the engine has nothing else to do meanwhile.
//
//bmlint:hotpath
func (ra *readAhead) wait() {
	for ra.filling.Load() {
		runtime.Gosched()
	}
}

// advance is prime's slow path when cur is spent and back was handed to a
// fill: wait for it, make it the current chunk, submit the next chunk into
// the spent buffer, and return the new chunk's first access.
//
// A recording's chunk is not the core's to fill again: it is left for a
// fresh buffer.
//
//bmlint:hotpath
func (ra *readAhead) advance() trace.Access {
	ra.wait()
	if ra.kept {
		ra.leave(len(ra.cur))
		ra.bufs[0] = chunks.get()
	}
	ra.bufs[0], ra.bufs[1] = ra.bufs[1], ra.bufs[0]
	ra.cur, ra.pos, ra.back, ra.busy = ra.back, 1, nil, false
	ra.submit()
	return ra.cur[0]
}

// ahead reports whether the generator is past the engine: accesses are
// left in cur or handed to a fill. Otherwise every access read ahead has
// been consumed, and any drawn since were drawn inline.
func (ra *readAhead) ahead() bool { return ra.busy || ra.pos < len(ra.cur) }

// end closes a completed phase. The engine has drawn the whole guaranteed
// region, so all of it must have gone to fills. What is still ahead
// carries over into the next phase, and so does a recording in progress;
// with neither the buffers go back to the free list.
//
//bmlint:hotpath
func (ra *readAhead) end() {
	if ra.bufs[0] == nil {
		return
	}
	if ra.todo != 0 {
		panic("cpu: guaranteed accesses never handed to a fill at the end of a phase")
	}
	if !ra.ahead() && ra.rec == nil {
		ra.release()
	}
}

// sync puts the generator back at the engine's position and returns the
// buffers: it waits for a fill in flight, rewinds to the current chunk's
// mark and re-draws the accesses the engine consumed from that chunk,
// which must equal them. A recording in progress is abandoned.
//
//bmlint:hotpath
func (ra *readAhead) sync() {
	ra.rec = nil
	if ra.bufs[0] == nil {
		return
	}
	ra.wait()
	if ra.ahead() {
		if ra.bufs[1] == nil {
			ra.bufs[1] = chunks.get()
		}
		ra.fill.Rewind(&ra.bufs[0].mark)
		redo := ra.bufs[1].acc[:ra.pos]
		ra.fill.Fill(redo)
		if !slices.Equal(redo, ra.cur[:ra.pos]) {
			panic("cpu: rewound generator re-drew accesses that differ from the chunk it was marked for")
		}
		rewinds.Inc()
	}
	ra.release()
}

// drop returns the buffers without rewinding, after waiting for a fill in
// flight, abandons a recording in progress and clears stale. It reports
// whether the generator was left ahead of the engine, which matters only to
// ReleaseReadAhead: Reset and RestoreState overwrite the generator.
//
//bmlint:hotpath
func (ra *readAhead) drop() (ahead bool) {
	ra.stale = false
	ra.rec = nil
	if ra.bufs[0] == nil {
		return false
	}
	ra.wait()
	ahead = ra.ahead()
	ra.release()
	return ahead
}

// release returns the core's buffers to the free list, leaving a
// recording's chunk to its owner. No fill may be in flight.
//
//bmlint:hotpath
func (ra *readAhead) release() {
	if ra.kept {
		ra.leave(ra.pos)
	} else {
		chunks.put(ra.bufs[0])
	}
	if ra.bufs[1] != nil {
		chunks.put(ra.bufs[1])
	}
	ra.bufs = [2]*chunk{}
	ra.cur, ra.pos, ra.back, ra.todo, ra.busy = nil, 0, nil, 0, false
}

// leave lets go of a recording's chunk as bufs[0] after the core drew n of
// its accesses.
//
//bmlint:hotpath
func (ra *readAhead) leave(n int) {
	if ra.replaying {
		ra.replayed += int64(n)
	}
	ra.kept, ra.replaying = false, false
}

// record starts recording into r. The generator must stand at the start
// of its stream and the core must hold no read-ahead.
func (ra *readAhead) record(r *Recording) {
	c := chunks.get()
	ra.fill.Mark(&c.mark)
	*r = Recording{c: c}
	ra.rec, ra.kept = r, true
	ra.bufs[0], ra.cur, ra.pos = c, c.acc[:0], 0
}

// replay makes the complete recording r the core's carried chunk and puts
// the generator at r's end. The generator must be congruent to r's
// recorder's (the same stream) and the core must hold no read-ahead.
func (ra *readAhead) replay(r *Recording) {
	ra.fill.Rewind(&r.c.end)
	ra.bufs[0], ra.cur, ra.pos = r.c, r.c.acc[:r.n], 0
	ra.kept, ra.replaying = true, true
}

// grow fills up to want more accesses into the recording behind cur, at
// least one, and returns how many it filled. A full chunk completes the
// recording.
//
//bmlint:hotpath
func (ra *readAhead) grow(want int64) int64 {
	r := ra.rec
	k := int(min(want, int64(chunkLen-r.n)))
	ra.fill.Fill(r.c.acc[r.n : r.n+k])
	r.n += k
	ra.cur = r.c.acc[:r.n]
	if r.n == chunkLen {
		ra.complete()
	}
	return int64(k)
}

// tail is prime's path for a recording core whose cur is spent: it grows
// the recording by a piece of the tail and draws its first access.
//
//bmlint:hotpath
func (ra *readAhead) tail() trace.Access {
	ra.grow(tailPiece)
	ra.pos++
	return ra.cur[ra.pos-1]
}

// complete ends a recording in progress: the generator stands right after
// the last access filled, which is where the recording ends.
//
//bmlint:hotpath
func (ra *readAhead) complete() {
	if r := ra.rec; r != nil {
		ra.fill.Mark(&r.c.end)
		r.done = true
		ra.rec = nil
	}
}

// mustBeCurrent panics when ReleaseReadAhead left the generator ahead of
// the engine.
func (ra *readAhead) mustBeCurrent() {
	if ra.stale {
		panic("cpu: read-ahead was handed back ahead of the engine; Reset or RestoreState it first")
	}
}
