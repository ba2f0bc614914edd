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

// pendingWrite is a deferred write awaiting drain.
type pendingWrite struct {
	loc   addr.Location
	bytes int64
	at    int64
}

// Controller schedules accesses over a set of channels.
type Controller struct {
	// cfg and the interleave map are construction-time configuration.
	cfg      Config          //bmlint:resetconst //bmlint:nosnapshot
	il       addr.Interleave //bmlint:resetconst //bmlint:nosnapshot
	channels []*dram.Channel
	// writeQ holds deferred writes per channel; lastNow tracks the most
	// recent arrival for final drains.
	writeQ  [][]pendingWrite
	lastNow int64
}

// New builds a controller from cfg.
func New(cfg Config) *Controller {
	if err := cfg.Timing.Validate(); err != nil {
		panic(err)
	}
	if cfg.WriteQueueDepth > 0 && cfg.WriteMaxAge == 0 {
		cfg.WriteMaxAge = 4096
	}
	c := &Controller{
		cfg:    cfg,
		il:     addr.NewInterleave(cfg.Geometry),
		writeQ: make([][]pendingWrite, cfg.Geometry.Channels),
	}
	// A queue drains as soon as it reaches WriteQueueDepth entries, so
	// one backing array of that many per channel serves every queue
	// without ever growing.
	if d := cfg.WriteQueueDepth; d > 0 {
		back := make([]pendingWrite, cfg.Geometry.Channels*d)
		for i := range c.writeQ {
			c.writeQ[i] = back[i*d : i*d : (i+1)*d]
		}
	}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		c.channels = append(c.channels, dram.NewChannel(cfg.Timing, cfg.Geometry.Ranks, cfg.Geometry.BanksPerRnk))
	}
	return c
}

// observe advances the controller's notion of time and ages out deferred
// writes on the channel. The common case — nothing aged — must stay
// loop-free so observe inlines into every Read/Write/Open call; the scan
// below only examines the queue's prefix, so checking the front entry
// alone decides whether any drain would happen.
func (c *Controller) observe(ch int, now int64) {
	if now > c.lastNow {
		c.lastNow = now
	}
	if c.cfg.WriteQueueDepth == 0 {
		return
	}
	q := c.writeQ[ch]
	if len(q) == 0 || q[0].at > now-c.cfg.WriteMaxAge {
		return
	}
	c.ageOut(ch, now)
}

// ageOut drains the aged prefix of the channel's write queue.
func (c *Controller) ageOut(ch int, now int64) {
	q := c.writeQ[ch]
	aged := 0
	for aged < len(q) && q[aged].at <= now-c.cfg.WriteMaxAge {
		aged++
	}
	if aged > 0 {
		c.drain(ch, q[:aged])
		c.writeQ[ch] = append(c.writeQ[ch][:0], q[aged:]...)
	}
}

// drain issues a batch of deferred writes, row-hit-first: the batch is
// ordered by (rank, bank, row) so writes to the same row coalesce into
// row-buffer hits before the bank moves on (FR_FCFS for the write burst).
//
// The batch is sorted in place — callers always discard drained entries —
// with a stable insertion sort: batches are bounded by WriteQueueDepth
// (tens of entries), and the hot path must not allocate the way a copy
// plus sort.Slice closure does. Stability keeps equal-key writes in
// arrival order, so drains are deterministic for a given enqueue sequence.
func (c *Controller) drain(ch int, batch []pendingWrite) {
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && writeBefore(&batch[j], &batch[j-1]); j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	for i := range batch {
		w := &batch[i]
		c.channels[ch].Access(dram.OpWrite, w.loc, w.at, w.bytes)
	}
}

// writeBefore orders deferred writes by (rank, bank, row, arrival).
func writeBefore(a, b *pendingWrite) bool {
	if a.loc.Rank != b.loc.Rank {
		return a.loc.Rank < b.loc.Rank
	}
	if a.loc.Bank != b.loc.Bank {
		return a.loc.Bank < b.loc.Bank
	}
	if a.loc.Row != b.loc.Row {
		return a.loc.Row < b.loc.Row
	}
	return a.at < b.at
}

// FlushWrites drains every deferred write (used before reading final
// statistics so bandwidth and energy accounting are complete).
func (c *Controller) FlushWrites() {
	for ch := range c.writeQ {
		if len(c.writeQ[ch]) > 0 {
			c.drain(ch, c.writeQ[ch])
			c.writeQ[ch] = c.writeQ[ch][:0]
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
		c.writeQ[i] = c.writeQ[i][:0]
	}
	c.lastNow = 0
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
	c.observe(l.Channel, now)
	done, rr = c.channels[l.Channel].Access(dram.OpRead, l, now+c.cfg.FixedLatency, bytes)
	return done, rr
}

// ReadAt is Read for an explicit pre-computed location (used for metadata
// banks whose placement is not a direct address map).
//
//bmlint:hotpath
func (c *Controller) ReadAt(l addr.Location, now int64, bytes int64) (done int64, rr dram.RowResult) {
	c.observe(l.Channel, now)
	return c.channels[l.Channel].Access(dram.OpRead, l, now+c.cfg.FixedLatency, bytes)
}

// Write schedules a write of bytes at p at CPU cycle now. The returned
// completion time may be ignored by callers that treat writes as posted.
//
//bmlint:hotpath
func (c *Controller) Write(p addr.Phys, now int64, bytes int64) (done int64, rr dram.RowResult) {
	return c.WriteAt(c.il.Map(p), now, bytes)
}

// WriteAt is Write for an explicit location. With a write queue configured
// the write is deferred (completion time is its enqueue acknowledgment);
// otherwise it is issued immediately.
//
//bmlint:hotpath
func (c *Controller) WriteAt(l addr.Location, now int64, bytes int64) (done int64, rr dram.RowResult) {
	c.observe(l.Channel, now)
	if c.cfg.WriteQueueDepth == 0 {
		return c.channels[l.Channel].Access(dram.OpWrite, l, now, bytes)
	}
	q := append(c.writeQ[l.Channel], pendingWrite{loc: l, bytes: bytes, at: now})
	if len(q) >= c.cfg.WriteQueueDepth {
		half := len(q) / 2
		c.drain(l.Channel, q[:half])
		q = append(q[:0], q[half:]...)
	}
	c.writeQ[l.Channel] = q
	return now + 1, c.channels[l.Channel].PeekRowHit(l, now)
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
	c.observe(l.Channel, now)
	return c.channels[l.Channel].Access(dram.OpOpen, l, now+c.cfg.FixedLatency, 0)
}

// PeekRowHit previews the row-buffer outcome for p at time now without
// modifying state.
func (c *Controller) PeekRowHit(p addr.Phys, now int64) dram.RowResult {
	l := c.il.Map(p)
	return c.channels[l.Channel].PeekRowHit(l, now)
}

// Stats returns the aggregate statistics over all channels, draining any
// deferred writes first so traffic accounting is complete.
func (c *Controller) Stats() dram.Stats {
	c.FlushWrites()
	var s dram.Stats
	for _, ch := range c.channels {
		s.Add(ch.Stats())
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
