package memctrl

import (
	"testing"

	"bimodal/internal/addr"
	"bimodal/internal/dram"
)

func testConfig() Config {
	cfg := StackedConfig(2)
	cfg.Timing.REFI = 0
	cfg.Timing.RFC = 0
	cfg.FixedLatency = 0
	return cfg
}

func TestReadLatencyMatchesChannel(t *testing.T) {
	c := New(testConfig())
	tm := c.Config().Timing
	done, rr := c.Read(0, 0, 64)
	if rr != dram.RowEmpty {
		t.Fatalf("rr = %v", rr)
	}
	want := tm.BurstCPU(64) + (tm.RCD+tm.CL)*tm.ClockRatio
	if done != want {
		t.Errorf("done = %d, want %d", done, want)
	}
}

func TestFixedLatencyApplied(t *testing.T) {
	cfg := testConfig()
	cfg.FixedLatency = 10
	c := New(cfg)
	done, _ := c.Read(0, 0, 64)
	cfg.FixedLatency = 0
	c2 := New(cfg)
	done2, _ := c2.Read(0, 0, 64)
	if done != done2+10 {
		t.Errorf("fixed latency not applied: %d vs %d", done, done2)
	}
}

func TestChannelsIndependent(t *testing.T) {
	c := New(testConfig())
	// Page-consecutive addresses land on different channels under the
	// row-rank-bank-mc-column interleave, so their bursts do not serialize.
	d1, _ := c.Read(0, 0, 64)
	d2, _ := c.Read(addr.Phys(c.Config().Geometry.PageBytes), 0, 64)
	if d1 != d2 {
		t.Errorf("parallel channel reads should complete together: %d vs %d", d1, d2)
	}
}

func TestOpenThenReadRowHit(t *testing.T) {
	c := New(testConfig())
	p := addr.Phys(0x10000)
	ready, rr := c.Open(p, 0)
	if rr != dram.RowEmpty {
		t.Fatalf("open rr = %v", rr)
	}
	done, rr := c.Read(p, ready, 64)
	if rr != dram.RowHit {
		t.Fatalf("read-after-open rr = %v", rr)
	}
	tm := c.Config().Timing
	if want := ready + tm.CL*tm.ClockRatio + tm.BurstCPU(64); done != want {
		t.Errorf("done = %d, want %d", done, want)
	}
}

func TestWritePosted(t *testing.T) {
	c := New(testConfig())
	done := c.Write(0, 0, 64)
	if done <= 0 {
		t.Error("write should return a completion time")
	}
	s := c.Stats()
	if s.Writes != 1 || s.BytesWrit != 64 {
		t.Errorf("stats after write: %+v", s)
	}
}

func TestStatsAggregation(t *testing.T) {
	c := New(testConfig())
	c.Read(0, 0, 64)
	c.Read(addr.Phys(c.Config().Geometry.PageBytes), 0, 64) // other channel
	if c.Stats().Reads != 2 {
		t.Errorf("aggregate reads = %d", c.Stats().Reads)
	}
	if c.ChannelStats(0).Reads != 1 || c.ChannelStats(1).Reads != 1 {
		t.Error("per-channel stats wrong")
	}
	c.ResetStats()
	if c.Stats().Reads != 0 {
		t.Error("ResetStats failed")
	}
}

func TestReadAtExplicitLocation(t *testing.T) {
	c := New(testConfig())
	l := addr.Location{Channel: 1, Bank: 3, Row: 42, Column: 0}
	done, rr := c.ReadAt(l, 0, 128)
	if rr != dram.RowEmpty || done <= 0 {
		t.Errorf("ReadAt: done=%d rr=%v", done, rr)
	}
	// Second read of the same explicit row: row hit.
	_, rr = c.ReadAt(l, done, 128)
	if rr != dram.RowHit {
		t.Errorf("second ReadAt rr = %v", rr)
	}
}

func TestPresetConfigs(t *testing.T) {
	s := StackedConfig(4)
	if s.Geometry.Channels != 4 || s.Geometry.PageBytes != 2048 {
		t.Errorf("stacked config: %+v", s.Geometry)
	}
	o := OffChipConfig(2)
	if o.Geometry.Channels != 2 || o.Geometry.Ranks != 2 {
		t.Errorf("offchip config: %+v", o.Geometry)
	}
	if o.Timing.BytesPerClock != 16 {
		t.Errorf("offchip bus width: %d", o.Timing.BytesPerClock)
	}
	if New(s).String() == "" || New(o).Channels() != 2 {
		t.Error("constructor accessors failed")
	}
	if New(s).Map(0).Channel != 0 {
		t.Error("map failed")
	}
	if New(s).Interleave().Geometry() != s.Geometry {
		t.Error("interleave accessor mismatch")
	}
}

func TestOffChipSlowerThanStacked(t *testing.T) {
	st := New(testConfig())
	oc := OffChipConfig(1)
	oc.Timing.REFI = 0
	oc.Timing.RFC = 0
	oc.FixedLatency = 0
	off := New(oc)
	d1, _ := st.Read(0, 0, 64)
	d2, _ := off.Read(0, 0, 64)
	if d2 <= d1 {
		t.Errorf("off-chip read (%d) should be slower than stacked (%d)", d2, d1)
	}
}
