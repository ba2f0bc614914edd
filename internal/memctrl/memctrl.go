// Package memctrl assembles DRAM channels into a memory controller with the
// paper's address interleaving (row-rank-bank-mc-column), open-page policy
// and write deferral.
//
// The controller exposes a latency-oriented API for the trace-driven
// simulator: Read returns the completion time of a demand read; Write
// schedules the transfer on the bank/bus timelines but the caller does not
// wait for it (writebacks, fills and dirty-bit updates are off the critical
// path, as the paper assumes); Open activates a row speculatively so a
// later column access sees a row hit (used by Bi-Modal's parallel
// tag+data path).
//
// Requests arrive in approximately global time order because the cores are
// MSHR-limited, so scheduling each request on arrival approximates FR_FCFS
// with an open-page policy: row hits naturally proceed without PRE/ACT.
package memctrl

import (
	"fmt"

	"bimodal/internal/addr"
	"bimodal/internal/dram"
)

// Config describes a controller: DRAM timing plus geometry.
type Config struct {
	Timing   dram.Timing
	Geometry addr.Geometry
	// FixedLatency is an additional constant command-path latency in CPU
	// cycles added to every demand read (controller queue + TSV/IO).
	FixedLatency int64
	// WriteQueueDepth sizes the per-channel deferred write queue: writes
	// wait there (off the read critical path) and drain row-hit-first when
	// the queue fills or entries age out. 0 issues writes immediately.
	WriteQueueDepth int
	// WriteMaxAge bounds how long a queued write may defer, in CPU cycles
	// (default 4096 when the queue is enabled).
	WriteMaxAge int64
}

// StackedConfig returns the stacked DRAM cache controller configuration for
// the given channel count (Table IV: 8 banks per channel, 2KB pages).
func StackedConfig(channels int) Config {
	return Config{
		Timing: dram.StackedTiming(),
		Geometry: addr.Geometry{
			Channels:    channels,
			Ranks:       1,
			BanksPerRnk: 8,
			PageBytes:   2048,
		},
		FixedLatency:    4,
		WriteQueueDepth: 32,
	}
}

// OffChipConfig returns the off-chip DDR3 controller configuration for the
// given channel count (Table IV: 2KB pages, 8 banks x 2 ranks per channel).
func OffChipConfig(channels int) Config {
	return Config{
		Timing: dram.DDR31600H(),
		Geometry: addr.Geometry{
			Channels:    channels,
			Ranks:       2,
			BanksPerRnk: 8,
			PageBytes:   2048,
		},
		FixedLatency:    10,
		WriteQueueDepth: 32,
	}
}

// pendingWrite is a deferred write awaiting drain. Its channel is the
// queue's; key packs the rank-major bank above the row (see WriteAt), so
// one unsigned compare orders writes by (rank, bank, row).
type pendingWrite struct {
	key   uint64
	col   uint64
	bytes int64
	at    int64
}

// writeQueue is one channel's deferred writes: a ring of slots on the
// controller's shared backing array, oldest entry at head. Enqueue,
// half-drain and age-out move head and n, never entries.
type writeQueue struct {
	buf  []pendingWrite
	head int // slot of the oldest entry
	n    int // queued entries
}

// Controller schedules accesses over a set of channels.
type Controller struct {
	// cfg and the interleave map are construction-time configuration.
	cfg      Config          //bmlint:resetconst //bmlint:nosnapshot
	il       addr.Interleave //bmlint:resetconst //bmlint:nosnapshot
	channels []*dram.Channel
	// writeQ holds deferred writes per channel.
	writeQ []writeQueue
	// A drain key holds the rank-major bank in its top bankBits bits and
	// the row in the rowBits below them; rowMask keeps the row.
	bankBits uint   //bmlint:resetconst //bmlint:nosnapshot
	rowBits  uint   //bmlint:resetconst //bmlint:nosnapshot
	rowMask  uint64 //bmlint:resetconst //bmlint:nosnapshot
	// perm is drain scratch: the ring slots of a batch in issue order.
	// Its contents never outlive one drain.
	perm []int //bmlint:resetconst //bmlint:nosnapshot
	// flushed is Stats' scratch channel: a channel's queued writes drain
	// into a copy of it here, never into the channel itself. Its contents
	// never outlive one Stats call; nil without a write queue.
	flushed *dram.Channel //bmlint:resetconst //bmlint:nosnapshot
}

// New builds a controller from cfg.
func New(cfg Config) *Controller {
	if err := cfg.Timing.Validate(); err != nil {
		panic(err)
	}
	if cfg.WriteQueueDepth < 0 {
		panic(fmt.Sprintf("memctrl: negative WriteQueueDepth %d", cfg.WriteQueueDepth))
	}
	if cfg.WriteQueueDepth > 0 && cfg.WriteMaxAge == 0 {
		cfg.WriteMaxAge = 4096
	}
	// The channels and Stats' scratch channel, when there is a write queue,
	// are built together.
	n := cfg.Geometry.Channels
	if cfg.WriteQueueDepth > 0 {
		n++
	}
	chans := dram.NewChannels(cfg.Timing, cfg.Geometry.Ranks, cfg.Geometry.BanksPerRnk, n)
	c := &Controller{
		cfg:      cfg,
		il:       addr.NewInterleave(cfg.Geometry),
		channels: chans[:cfg.Geometry.Channels],
		writeQ:   make([]writeQueue, cfg.Geometry.Channels),
		bankBits: addr.Log2(uint64(cfg.Geometry.Banks())),
	}
	c.rowBits = 64 - c.bankBits
	c.rowMask = ^uint64(0) >> c.bankBits
	// A queue drains as soon as it reaches WriteQueueDepth entries, so it
	// never holds more than that between calls and one more while a write
	// is enqueued: one backing array of depth+1 slots per channel serves
	// every queue without ever growing.
	if d := cfg.WriteQueueDepth; d > 0 {
		back := make([]pendingWrite, cfg.Geometry.Channels*(d+1))
		for i := range c.writeQ {
			c.writeQ[i].buf = back[i*(d+1) : (i+1)*(d+1)]
		}
		c.perm = make([]int, d+1)
		c.flushed = chans[cfg.Geometry.Channels]
	}
	return c
}

// observe reports whether the channel's oldest deferred write has aged
// out at now, in which case the caller drains the aged prefix with
// ageOut. ageOut only drains a prefix of the queue, so checking the front
// entry alone decides whether any drain would happen; that keeps observe
// loop-free and call-free, small enough to inline into every
// Read/Write/Open.
func (c *Controller) observe(ch int, now int64) (aged bool) {
	q := &c.writeQ[ch]
	return q.n != 0 && q.buf[q.head].at <= now-c.cfg.WriteMaxAge
}

// ageOut drains the aged prefix of the channel's write queue.
func (c *Controller) ageOut(ch int, now int64) {
	q := &c.writeQ[ch]
	aged := 0
	for s := q.head; aged < q.n && q.buf[s].at <= now-c.cfg.WriteMaxAge; aged++ {
		if s++; s == len(q.buf) {
			s = 0
		}
	}
	c.drain(ch, aged)
}

// drain issues the channel's k oldest deferred writes, row-hit-first: the
// batch is ordered by (rank, bank, row) so writes to the same row
// coalesce into row-buffer hits before the bank moves on (FR_FCFS for the
// write burst), and by arrival time within a row.
//
// The sort is a stable insertion sort of ring slots into perm, keyed by
// each entry's precomputed key and then its arrival time: batches are
// bounded by WriteQueueDepth (tens of entries), and the hot path must not
// allocate the way a copy plus sort.Slice closure does. Stability keeps
// equal-key writes in enqueue order, so drains are deterministic for a
// given enqueue sequence.
func (c *Controller) drain(ch int, k int) {
	q := &c.writeQ[ch]
	perm := c.order(ch, k)
	if q.head += k; q.head >= len(q.buf) {
		q.head -= len(q.buf)
	}
	q.n -= k
	c.issue(ch, perm, c.channels[ch])
}

// order sorts the ring slots of the channel's k oldest deferred writes into
// drain order in perm and returns them; the queue itself is untouched.
func (c *Controller) order(ch int, k int) []int {
	q := &c.writeQ[ch]
	perm := c.perm[:k]
	s := q.head
	for i := range perm {
		w := &q.buf[s]
		j := i
		for ; j > 0; j-- {
			p := &q.buf[perm[j-1]]
			if p.key < w.key || p.key == w.key && p.at <= w.at {
				break
			}
			perm[j] = perm[j-1]
		}
		perm[j] = s
		if s++; s == len(q.buf) {
			s = 0
		}
	}
	return perm
}

// issue performs the channel's writes in the ring slots perm, in order, on
// dc: the channel itself for a drain, a copy of it for Stats.
func (c *Controller) issue(ch int, perm []int, dc *dram.Channel) {
	q := &c.writeQ[ch]
	for _, slot := range perm {
		w := &q.buf[slot]
		l := addr.Location{Channel: ch, Bank: int(w.key >> c.rowBits), Row: w.key & c.rowMask, Column: w.col}
		dc.Access(dram.OpWrite, l, w.at, w.bytes)
	}
}

// FlushWrites drains every deferred write into the channels. Stats does
// not need it: it accounts for queued writes without draining them.
func (c *Controller) FlushWrites() {
	for ch := range c.writeQ {
		if c.writeQ[ch].n > 0 {
			c.drain(ch, c.writeQ[ch].n)
		}
	}
}

// Reset returns the controller to its just-constructed state in place,
// reusing the write-queue backing arrays and resetting every channel.
// Configuration (timing, geometry, queue depth) is untouched.
//
//bmlint:hotpath
func (c *Controller) Reset() {
	for i := range c.writeQ {
		c.writeQ[i].head, c.writeQ[i].n = 0, 0
	}
	for _, ch := range c.channels {
		ch.Reset()
	}
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Interleave returns the address interleaver (useful for schemes that place
// metadata by explicit location).
func (c *Controller) Interleave() addr.Interleave { return c.il }

// Map exposes the location an address maps to.
func (c *Controller) Map(p addr.Phys) addr.Location { return c.il.Map(p) }

// Read performs a demand read of the given number of bytes at physical
// address p, arriving at CPU cycle now. It returns the completion time and
// the row-buffer outcome.
//
//bmlint:hotpath
func (c *Controller) Read(p addr.Phys, now int64, bytes int64) (done int64, rr dram.RowResult) {
	l := c.il.Map(p)
	if c.observe(l.Channel, now) {
		c.ageOut(l.Channel, now)
	}
	done, rr = c.channels[l.Channel].Access(dram.OpRead, l, now+c.cfg.FixedLatency, bytes)
	return done, rr
}

// ReadAt is Read for an explicit pre-computed location (used for metadata
// banks whose placement is not a direct address map).
//
//bmlint:hotpath
func (c *Controller) ReadAt(l addr.Location, now int64, bytes int64) (done int64, rr dram.RowResult) {
	if c.observe(l.Channel, now) {
		c.ageOut(l.Channel, now)
	}
	return c.channels[l.Channel].Access(dram.OpRead, l, now+c.cfg.FixedLatency, bytes)
}

// Write schedules a write of bytes at p at CPU cycle now. The returned
// time may be ignored by callers that treat writes as posted.
//
//bmlint:hotpath
func (c *Controller) Write(p addr.Phys, now int64, bytes int64) (done int64) {
	return c.WriteAt(c.il.Map(p), now, bytes)
}

// WriteAt is Write for an explicit location. With a write queue configured
// the write is deferred and the returned time is its enqueue
// acknowledgment; otherwise it is issued immediately and the returned
// time is its completion.
//
//bmlint:hotpath
func (c *Controller) WriteAt(l addr.Location, now int64, bytes int64) (done int64) {
	if c.observe(l.Channel, now) {
		c.ageOut(l.Channel, now)
	}
	if c.cfg.WriteQueueDepth == 0 {
		done, _ = c.channels[l.Channel].Access(dram.OpWrite, l, now, bytes)
		return done
	}
	q := &c.writeQ[l.Channel]
	s := q.head + q.n
	if s >= len(q.buf) {
		s -= len(q.buf)
	}
	// The key packs the rank-major bank above the row; rank-major banks
	// order like (rank, bank), so keys order like (rank, bank, row), the
	// drain order. No address map produces a location it cannot hold.
	if uint64(l.Bank)>>c.bankBits != 0 || l.Row&^c.rowMask != 0 {
		panic(fmt.Sprintf("memctrl: write location %+v outside the geometry or too wide for the drain key", l))
	}
	q.buf[s] = pendingWrite{key: uint64(l.Bank)<<c.rowBits | l.Row, col: l.Column, bytes: bytes, at: now}
	if q.n++; q.n >= c.cfg.WriteQueueDepth {
		c.drain(l.Channel, q.n/2)
	}
	return now + 1
}

// Open speculatively activates the row containing p. It returns the time at
// which the row is open (a subsequent column command from then on sees a
// row hit) and the row-buffer outcome observed.
//
//bmlint:hotpath
func (c *Controller) Open(p addr.Phys, now int64) (ready int64, rr dram.RowResult) {
	return c.OpenAt(c.il.Map(p), now)
}

// OpenAt is Open for an explicit location.
//
//bmlint:hotpath
func (c *Controller) OpenAt(l addr.Location, now int64) (ready int64, rr dram.RowResult) {
	if c.observe(l.Channel, now) {
		c.ageOut(l.Channel, now)
	}
	return c.channels[l.Channel].Access(dram.OpOpen, l, now+c.cfg.FixedLatency, 0)
}

// Stats returns the aggregate statistics over all channels as they would
// read after FlushWrites, so traffic accounting is complete, and leaves the
// controller unchanged: a channel with queued writes drains them into the
// scratch copy flushed of itself, whose statistics count in its place.
// Reading statistics mid-run therefore never changes what follows.
func (c *Controller) Stats() dram.Stats {
	var s dram.Stats
	for ch, dc := range c.channels {
		if n := c.writeQ[ch].n; n > 0 {
			c.flushed.CopyFrom(dc)
			c.issue(ch, c.order(ch, n), c.flushed)
			dc = c.flushed
		}
		s.Add(dc.Stats())
	}
	return s
}

// ChannelStats returns the statistics of one channel.
func (c *Controller) ChannelStats(i int) dram.Stats { return c.channels[i].Stats() }

// Channels returns the number of channels.
func (c *Controller) Channels() int { return len(c.channels) }

// ResetStats clears statistics on every channel.
func (c *Controller) ResetStats() {
	for _, ch := range c.channels {
		ch.ResetStats()
	}
}

// String summarizes the configuration.
func (c *Controller) String() string {
	g := c.cfg.Geometry
	return fmt.Sprintf("memctrl{channels=%d ranks=%d banks=%d page=%dB}", g.Channels, g.Ranks, g.BanksPerRnk, g.PageBytes)
}
