package memctrl

import (
	"testing"

	"bimodal/internal/addr"
)

func wqConfig(depth int) Config {
	cfg := StackedConfig(1)
	cfg.Timing.REFI = 0
	cfg.Timing.RFC = 0
	cfg.FixedLatency = 0
	cfg.WriteQueueDepth = depth
	return cfg
}

func TestWriteQueueDefersWrites(t *testing.T) {
	c := New(wqConfig(32))
	for i := 0; i < 8; i++ {
		c.Write(addr.Phys(i*2048), int64(i)*10, 64)
	}
	// Before any flush trigger the channel has performed no writes.
	raw := c.ChannelStats(0)
	if raw.Writes != 0 {
		t.Errorf("writes issued eagerly: %d", raw.Writes)
	}
	// Stats() flushes so accounting is complete.
	if got := c.Stats().Writes; got != 8 {
		t.Errorf("flushed writes = %d, want 8", got)
	}
}

func TestWriteQueueKeepsReadsFast(t *testing.T) {
	// A read arriving right after a burst of writes to its bank must not
	// queue behind them (write deferral = read priority). Compare against
	// an immediate-issue controller.
	latency := func(depth int) int64 {
		c := New(wqConfig(depth))
		target := addr.Phys(0x10000)
		for i := 0; i < 16; i++ {
			// Writes to many rows of the read's bank (same bank: stride by
			// banks*page so row changes, bank repeats).
			c.Write(target+addr.Phys(i*8*2048), 100, 64)
		}
		done, _ := c.Read(target, 120, 64)
		return done - 120
	}
	deferred := latency(32)
	immediate := latency(0)
	if deferred >= immediate {
		t.Errorf("deferred-write read latency %d >= immediate-issue %d", deferred, immediate)
	}
}

func TestWriteQueueDrainsWhenFull(t *testing.T) {
	c := New(wqConfig(8))
	for i := 0; i < 8; i++ {
		c.Write(addr.Phys(i*2048), int64(i), 64)
	}
	// Depth reached: half the queue drained.
	if got := c.ChannelStats(0).Writes; got != 4 {
		t.Errorf("drained writes = %d, want 4 (half of depth)", got)
	}
}

func TestWriteQueueAgesOut(t *testing.T) {
	cfg := wqConfig(32)
	cfg.WriteMaxAge = 100
	c := New(cfg)
	c.Write(0, 0, 64)
	// A much later access to the channel ages the write out.
	c.Read(addr.Phys(4096), 500, 64)
	if got := c.ChannelStats(0).Writes; got != 1 {
		t.Errorf("aged write not drained: %d", got)
	}
}

func TestWriteQueueRowHitFirstDrain(t *testing.T) {
	// Interleave writes to two rows of one bank; the sorted drain should
	// yield more row hits than strict arrival order would.
	cfg := wqConfig(32)
	c := New(cfg)
	rowA := addr.Phys(0)
	rowB := addr.Phys(8 * 2048) // same bank (1 channel, 8 banks), next row
	for i := 0; i < 8; i++ {
		c.Write(rowA+addr.Phys(i*64), int64(i), 64)
		c.Write(rowB+addr.Phys(i*64), int64(i), 64)
	}
	c.FlushWrites()
	s := c.Stats()
	// Row-hit-first: 16 writes, 2 activations -> 14 row hits.
	if s.RowHits < 14 {
		t.Errorf("row hits = %d, want >= 14 (row-sorted drain)", s.RowHits)
	}
}

func TestFlushWritesIdempotent(t *testing.T) {
	c := New(wqConfig(16))
	c.Write(0, 0, 64)
	c.FlushWrites()
	c.FlushWrites()
	if got := c.Stats().Writes; got != 1 {
		t.Errorf("writes = %d after double flush", got)
	}
}

func TestWriteQueueRejectsUnkeyableLocation(t *testing.T) {
	// One rank of eight banks: drain keys hold banks 0-7 and 61-bit rows.
	for _, l := range []addr.Location{{Bank: 8}, {Bank: -1}, {Row: 1 << 61}} {
		c := New(wqConfig(8))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WriteAt(%+v) queued a write its drain key cannot hold", l)
				}
			}()
			c.WriteAt(l, 0, 64)
		}()
	}
}
