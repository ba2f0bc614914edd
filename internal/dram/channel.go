package dram

import (
	"fmt"

	"bimodal/internal/addr"
)

// RowResult classifies how an access found the target bank's row buffer.
type RowResult int

// Row buffer outcomes.
const (
	RowHit      RowResult = iota // target row already open
	RowEmpty                     // bank precharged, ACT needed
	RowConflict                  // different row open, PRE + ACT needed
)

// String implements fmt.Stringer.
func (r RowResult) String() string {
	switch r {
	case RowHit:
		return "hit"
	case RowEmpty:
		return "empty"
	case RowConflict:
		return "conflict"
	default:
		return fmt.Sprintf("RowResult(%d)", int(r))
	}
}

// Op is a DRAM operation kind.
type Op int

// Operation kinds.
const (
	OpRead Op = iota
	OpWrite
	OpOpen // activate the row only (speculative row open); no data transfer
)

// Stats aggregates channel activity for bandwidth, RBH and energy models.
type Stats struct {
	Reads     int64
	Writes    int64
	Opens     int64
	Activates int64
	Precharge int64
	RowHits   int64 // row-buffer hits among reads+writes
	RowMisses int64 // empty + conflict among reads+writes
	Refreshes int64
	BytesRead int64
	BytesWrit int64
	// BusyCPU accumulates data-bus occupancy in CPU cycles, for utilization.
	BusyCPU int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Opens += other.Opens
	s.Activates += other.Activates
	s.Precharge += other.Precharge
	s.RowHits += other.RowHits
	s.RowMisses += other.RowMisses
	s.Refreshes += other.Refreshes
	s.BytesRead += other.BytesRead
	s.BytesWrit += other.BytesWrit
	s.BusyCPU += other.BusyCPU
}

// RowHitRate returns the fraction of read/write accesses that hit in a row
// buffer.
func (s *Stats) RowHitRate() float64 {
	tot := s.RowHits + s.RowMisses
	if tot == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(tot)
}

// bank is the per-bank timing state.
type bank struct {
	openRow   int64 // -1 when precharged
	nextCAS   int64 // earliest CPU cycle for the next column command
	actAt     int64 // time of the last activate (for tRAS)
	wrRecover int64 // earliest CPU cycle a precharge may follow a write
	lastEpoch int64 // refresh epoch of the last access (rows close across epochs)
}

// rankState tracks per-rank activate constraints: tRRD between any two
// activates and the rolling four-activate window (tFAW).
type rankState struct {
	lastAct int64
	// recentActs holds the times of the last four activates (ring).
	recentActs [4]int64
	actPos     int
}

// Channel models one DRAM channel: a grid of banks behind a shared data bus.
type Channel struct {
	// timing is construction-time configuration.
	timing Timing //bmlint:resetconst //bmlint:nosnapshot
	banks  []bank // ranks*banksPerRank, flattened rank-major
	ranks  []rankState
	// rankShift is fixed geometry: log2(banks per rank), so a rank-major
	// bank index shifted right by it is the bank's rank.
	rankShift uint  //bmlint:resetconst //bmlint:nosnapshot
	busAt     int64 // data bus free time (CPU cycles)
	stats     Stats
	// Refresh period/duration in CPU cycles (0 disables) — derived from
	// timing at construction.
	refPeriod int64 //bmlint:resetconst //bmlint:nosnapshot
	refDur    int64 //bmlint:resetconst //bmlint:nosnapshot
	// Timing constants hoisted to CPU cycles at construction: the access
	// path is hot enough that re-deriving them through the value-receiver
	// Timing helpers (which copy the struct) shows up in profiles.
	clCPU, cwlCPU   int64 //bmlint:resetconst //bmlint:nosnapshot
	rcdCPU, rpCPU   int64 //bmlint:resetconst //bmlint:nosnapshot
	rasCPU, wrCPU   int64 //bmlint:resetconst //bmlint:nosnapshot
	rrdCPU, fawCPU  int64 //bmlint:resetconst //bmlint:nosnapshot
	ratio, perClock int64 //bmlint:resetconst //bmlint:nosnapshot
	// Memoized bytes -> burst-cycles mapping for the access fast path. A
	// pure function of construction-time constants (perClock, ratio), so
	// it stays valid across Reset and Restore and never affects behaviour
	// — only the division it avoids.
	burstBytes  int64 //bmlint:resetconst //bmlint:nosnapshot — last bytes -> burst mapping (0 = unused)
	burstCycles int64 //bmlint:resetconst //bmlint:nosnapshot
}

// NewChannel builds a channel with the given timing and geometry (ranks x
// banks per rank; banks per rank must be a power of two).
func NewChannel(t Timing, ranks, banksPerRank int) *Channel {
	checkGeometry(t, ranks, banksPerRank)
	c := new(Channel)
	c.init(t, make([]bank, ranks*banksPerRank), make([]rankState, ranks))
	return c
}

// NewChannels builds n channels as n calls of NewChannel would, but the
// channels, their banks and their ranks each share one backing array, so
// a controller's channels cost four allocations whatever their number.
func NewChannels(t Timing, ranks, banksPerRank, n int) []*Channel {
	checkGeometry(t, ranks, banksPerRank)
	nb := ranks * banksPerRank
	chans, banks, rks := make([]Channel, n), make([]bank, n*nb), make([]rankState, n*ranks)
	out := make([]*Channel, n)
	for i := range chans {
		chans[i].init(t, banks[i*nb:(i+1)*nb:(i+1)*nb], rks[i*ranks:(i+1)*ranks:(i+1)*ranks])
		out[i] = &chans[i]
	}
	return out
}

// checkGeometry panics on an invalid timing or geometry.
func checkGeometry(t Timing, ranks, banksPerRank int) {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	if ranks <= 0 || !addr.IsPow2(uint64(banksPerRank)) {
		panic(fmt.Sprintf("dram: invalid geometry ranks=%d banks=%d", ranks, banksPerRank))
	}
}

// init sets a zero Channel up over its bank and rank arrays.
func (c *Channel) init(t Timing, banks []bank, ranks []rankState) {
	*c = Channel{
		timing:    t,
		banks:     banks,
		ranks:     ranks,
		rankShift: addr.Log2(uint64(len(banks) / len(ranks))),
		clCPU:     t.cpu(t.CL),
		cwlCPU:    t.cpu(t.CWL),
		rcdCPU:    t.cpu(t.RCD),
		rpCPU:     t.cpu(t.RP),
		rasCPU:    t.cpu(t.RAS),
		wrCPU:     t.cpu(t.WR),
		rrdCPU:    t.cpu(t.RRD),
		fawCPU:    t.cpu(t.FAW),
		ratio:     t.ClockRatio,
		perClock:  t.BytesPerClock,
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	// No activates have happened yet: seed the activate history far in the
	// past so tRRD/tFAW do not constrain the first commands.
	const longAgo = int64(-1) << 40
	for r := range c.ranks {
		c.ranks[r].lastAct = longAgo
		for j := range c.ranks[r].recentActs {
			c.ranks[r].recentActs[j] = longAgo
		}
	}
	if t.REFI > 0 {
		c.refPeriod = t.cpu(t.REFI)
		c.refDur = t.cpu(t.RFC)
	}
}

// Reset returns the channel to its just-constructed state in place, reusing
// the bank and rank arrays: all rows precharged, bank timing cleared, the
// activate history re-seeded far in the past, bus freed and stats zeroed.
// Timing and geometry are construction-time invariants and are untouched.
//
//bmlint:hotpath
func (c *Channel) Reset() {
	const longAgo = int64(-1) << 40
	for i := range c.banks {
		c.banks[i] = bank{openRow: -1}
	}
	for r := range c.ranks {
		c.ranks[r].lastAct = longAgo
		for j := range c.ranks[r].recentActs {
			c.ranks[r].recentActs[j] = longAgo
		}
		c.ranks[r].actPos = 0
	}
	c.busAt = 0
	c.stats = Stats{}
}

// Timing returns the channel's timing parameters.
func (c *Channel) Timing() Timing { return c.timing }

// Stats returns a snapshot of accumulated statistics.
func (c *Channel) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics (timing state is preserved).
func (c *Channel) ResetStats() { c.stats = Stats{} }

// CopyFrom overwrites c's state (bank and rank timing, the bus and the
// statistics) with src's, so that c then behaves exactly as src does. Both
// must be built with the same timing and geometry. It allocates nothing.
func (c *Channel) CopyFrom(src *Channel) {
	copy(c.banks, src.banks)
	copy(c.ranks, src.ranks)
	c.busAt = src.busAt
	c.stats = src.stats
}

// refreshAdjust moves t out of any refresh blackout window and closes the
// bank's row if a refresh happened since its last use.
func (c *Channel) refreshAdjust(b *bank, t int64) int64 {
	if c.refPeriod == 0 {
		return t
	}
	epoch := t / c.refPeriod
	if epoch != b.lastEpoch {
		// A refresh occurred since this bank was last touched: the row
		// buffer was closed by the refresh's implicit precharge-all.
		if b.openRow != -1 {
			b.openRow = -1
			c.stats.Precharge++
		}
		b.lastEpoch = epoch
		c.stats.Refreshes++
	}
	if off := t - epoch*c.refPeriod; off < c.refDur {
		t = epoch*c.refPeriod + c.refDur
	}
	return t
}

// Access performs op on the location, arriving at CPU cycle now, moving the
// given number of bytes (ignored for OpOpen). It returns the CPU cycle at
// which the operation's data transfer completes (for OpOpen: when the row
// is open and a column command may issue) and the row-buffer outcome.
// The location's rank-major bank must be within the channel's geometry.
//
//bmlint:hotpath
func (c *Channel) Access(op Op, l addr.Location, now int64, bytes int64) (done int64, rr RowResult) {
	b := &c.banks[l.Bank]
	t := c.refreshAdjust(b, now)

	var casReady int64
	switch {
	case b.openRow == int64(l.Row):
		rr = RowHit
		casReady = max64(t, b.nextCAS)
	case b.openRow == -1:
		rr = RowEmpty
		actAt := c.activate(l.Bank>>c.rankShift, b, t)
		casReady = actAt + c.rcdCPU
	default:
		rr = RowConflict
		preAt := max64(max64(t, b.actAt+c.rasCPU), b.wrRecover)
		c.stats.Precharge++
		actAt := c.activate(l.Bank>>c.rankShift, b, preAt+c.rpCPU)
		casReady = actAt + c.rcdCPU
	}
	b.openRow = int64(l.Row)

	if op == OpOpen {
		c.stats.Opens++
		if rr != RowHit {
			// Row newly opened: the next CAS may issue at casReady.
			b.nextCAS = max64(b.nextCAS, casReady)
		}
		return casReady, rr
	}

	var burst int64
	if bytes > 0 {
		if bytes == c.burstBytes {
			burst = c.burstCycles
		} else {
			burst = (bytes + c.perClock - 1) / c.perClock * c.ratio
			c.burstBytes, c.burstCycles = bytes, burst
		}
	}
	var lat int64
	if op == OpRead {
		lat = c.clCPU
	} else {
		lat = c.cwlCPU
	}
	dataStart := max64(casReady+lat, c.busAt)
	busEnd := dataStart + burst
	c.busAt = busEnd
	c.stats.BusyCPU += burst
	// Column commands pipeline at the burst rate (tCCD == burst length).
	b.nextCAS = casReady + burst
	if op == OpRead {
		c.stats.Reads++
		c.stats.BytesRead += bytes
	} else {
		c.stats.Writes++
		c.stats.BytesWrit += bytes
		b.wrRecover = busEnd + c.wrCPU
	}
	if rr == RowHit {
		c.stats.RowHits++
	} else {
		c.stats.RowMisses++
	}
	return busEnd, rr
}

// activate issues an ACT to bank b of the given rank at the earliest time
// >= earliest that honours tRRD (activate-to-activate within the rank) and
// tFAW (at most four activates per rolling window). It returns the actual
// activate time and updates all activate bookkeeping.
func (c *Channel) activate(rank int, b *bank, earliest int64) int64 {
	rs := &c.ranks[rank]
	at := earliest
	if c.rrdCPU > 0 {
		at = max64(at, rs.lastAct+c.rrdCPU)
	}
	if c.fawCPU > 0 {
		// The oldest of the last four activates bounds the next one.
		oldest := rs.recentActs[rs.actPos]
		at = max64(at, oldest+c.fawCPU)
	}
	rs.lastAct = at
	rs.recentActs[rs.actPos] = at
	rs.actPos = (rs.actPos + 1) % len(rs.recentActs)
	b.actAt = at
	c.stats.Activates++
	return at
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
