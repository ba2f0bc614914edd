package dram

import (
	"testing"

	"bimodal/internal/addr"
)

// noRefresh returns stacked timing with refresh disabled, for deterministic
// latency arithmetic in tests.
func noRefresh() Timing {
	t := StackedTiming()
	t.REFI = 0
	t.RFC = 0
	return t
}

func loc(bank int, row, col uint64) addr.Location {
	return addr.Location{Channel: 0, Bank: bank, Row: row, Column: col}
}

func TestValidate(t *testing.T) {
	if err := StackedTiming().Validate(); err != nil {
		t.Fatalf("stacked timing invalid: %v", err)
	}
	if err := DDR31600H().Validate(); err != nil {
		t.Fatalf("ddr3 timing invalid: %v", err)
	}
	bad := StackedTiming()
	bad.CL = 0
	if bad.Validate() == nil {
		t.Error("expected error for CL=0")
	}
	bad = StackedTiming()
	bad.ClockRatio = 0
	if bad.Validate() == nil {
		t.Error("expected error for ClockRatio=0")
	}
	bad = StackedTiming()
	bad.RFC = 0
	if bad.Validate() == nil {
		t.Error("expected error for refresh without RFC")
	}
	bad = StackedTiming()
	bad.BytesPerClock = 0
	if bad.Validate() == nil {
		t.Error("expected error for BytesPerClock=0")
	}
}

func TestBurstClocks(t *testing.T) {
	tm := StackedTiming() // 32 bytes per clock
	cases := []struct {
		bytes, want int64
	}{{0, 0}, {1, 1}, {32, 1}, {64, 2}, {72, 3}, {128, 4}}
	for _, c := range cases {
		if got := tm.BurstClocks(c.bytes); got != c.want {
			t.Errorf("BurstClocks(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
	ddr := DDR31600H() // 16 bytes per clock: 64B takes BL=4 clocks
	if got := ddr.BurstClocks(64); got != 4 {
		t.Errorf("DDR3 BurstClocks(64) = %d, want 4", got)
	}
}

func TestRowEmptyLatency(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	done, rr := ch.Access(OpRead, loc(0, 5, 0), 0, 64)
	if rr != RowEmpty {
		t.Fatalf("first access row result = %v, want empty", rr)
	}
	// ACT(tRCD) + CL + burst(2 clocks), all x ratio 2.
	want := tm.cpu(tm.RCD) + tm.cpu(tm.CL) + tm.BurstCPU(64)
	if done != want {
		t.Errorf("empty-row read done = %d, want %d", done, want)
	}
}

func TestRowHitLatency(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	first, _ := ch.Access(OpRead, loc(0, 5, 0), 0, 64)
	done, rr := ch.Access(OpRead, loc(0, 5, 64), first, 64)
	if rr != RowHit {
		t.Fatalf("second access to same row = %v, want hit", rr)
	}
	want := first + tm.cpu(tm.CL) + tm.BurstCPU(64)
	if done != want {
		t.Errorf("row-hit read done = %d, want %d", done, want)
	}
}

func TestRowConflictLatency(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	first, _ := ch.Access(OpRead, loc(0, 5, 0), 0, 64)
	// Access a different row in the same bank well after tRAS has elapsed.
	start := first + tm.cpu(tm.RAS)
	done, rr := ch.Access(OpRead, loc(0, 9, 0), start, 64)
	if rr != RowConflict {
		t.Fatalf("row result = %v, want conflict", rr)
	}
	want := start + tm.cpu(tm.RP+tm.RCD+tm.CL) + tm.BurstCPU(64)
	if done != want {
		t.Errorf("conflict read done = %d, want %d", done, want)
	}
}

func TestConflictRespectsTRAS(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	ch.Access(OpRead, loc(0, 5, 0), 0, 64)
	// Immediately conflict: precharge must wait until actAt + tRAS.
	done, rr := ch.Access(OpRead, loc(0, 9, 0), 0, 64)
	if rr != RowConflict {
		t.Fatalf("row result = %v", rr)
	}
	preAt := tm.cpu(tm.RAS) // first ACT was at 0
	want := preAt + tm.cpu(tm.RP+tm.RCD+tm.CL) + tm.BurstCPU(64)
	if done != want {
		t.Errorf("tRAS-limited conflict done = %d, want %d", done, want)
	}
}

func TestBusSerialization(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	// Two simultaneous reads to different banks: the second ACT is pushed
	// by tRRD and the bursts serialize on the data bus; completion is the
	// later of the two constraints.
	d1, _ := ch.Access(OpRead, loc(0, 1, 0), 0, 64)
	d2, _ := ch.Access(OpRead, loc(1, 1, 0), 0, 64)
	busBound := d1 + tm.BurstCPU(64)
	rrdBound := tm.cpu(tm.RRD+tm.RCD+tm.CL) + tm.BurstCPU(64)
	want := busBound
	if rrdBound > want {
		want = rrdBound
	}
	if d2 != want {
		t.Errorf("second burst done = %d, want %d (bus %d, tRRD %d)", d2, want, busBound, rrdBound)
	}
}

func TestRRDDelaysSecondActivate(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	ch.Access(OpOpen, loc(0, 1, 0), 0, 0)
	ready, _ := ch.Access(OpOpen, loc(1, 1, 0), 0, 0)
	if want := tm.cpu(tm.RRD + tm.RCD); ready != want {
		t.Errorf("second open ready = %d, want %d (tRRD-delayed)", ready, want)
	}
}

func TestFAWLimitsActivateBurst(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	// Five immediate opens to distinct banks: the fifth ACT must wait for
	// the four-activate window measured from the first ACT.
	var ready int64
	for bk := 0; bk < 5; bk++ {
		ready, _ = ch.Access(OpOpen, loc(bk, 1, 0), 0, 0)
	}
	// ACT#5 >= ACT#1 + tFAW; ACT#1 was at time 0.
	if want := tm.cpu(tm.FAW + tm.RCD); ready < want {
		t.Errorf("fifth open ready = %d, want >= %d (tFAW)", ready, want)
	}
	// And tFAW must dominate plain tRRD spacing for the default timing.
	if rrdOnly := tm.cpu(4*tm.RRD + tm.RCD); ready <= rrdOnly {
		t.Errorf("fifth open ready = %d not beyond tRRD-only spacing %d", ready, rrdOnly)
	}
}

func TestPipelinedColumnReads(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	d1, _ := ch.Access(OpRead, loc(0, 1, 0), 0, 64)
	// Second column read issued immediately: it should complete one burst
	// after the first (column commands pipeline), not a full CL later.
	d2, rr := ch.Access(OpRead, loc(0, 1, 64), 0, 64)
	if rr != RowHit {
		t.Fatalf("rr = %v", rr)
	}
	if d2 != d1+tm.BurstCPU(64) {
		t.Errorf("pipelined read done = %d, want %d", d2, d1+tm.BurstCPU(64))
	}
}

func TestOpenThenRead(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	ready, rr := ch.Access(OpOpen, loc(0, 3, 0), 0, 0)
	if rr != RowEmpty {
		t.Fatalf("open row result = %v", rr)
	}
	if want := tm.cpu(tm.RCD); ready != want {
		t.Errorf("open ready = %d, want %d", ready, want)
	}
	// A read after the row is open sees a row hit and only pays CL+burst.
	done, rr := ch.Access(OpRead, loc(0, 3, 128), ready, 64)
	if rr != RowHit {
		t.Fatalf("read-after-open row result = %v", rr)
	}
	if want := ready + tm.cpu(tm.CL) + tm.BurstCPU(64); done != want {
		t.Errorf("read-after-open done = %d, want %d", done, want)
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	wdone, _ := ch.Access(OpWrite, loc(0, 1, 0), 0, 64)
	// Conflict right after the write: PRE must wait for write recovery.
	done, rr := ch.Access(OpRead, loc(0, 2, 0), wdone, 64)
	if rr != RowConflict {
		t.Fatalf("rr = %v", rr)
	}
	preAt := wdone + tm.cpu(tm.WR)
	want := preAt + tm.cpu(tm.RP+tm.RCD+tm.CL) + tm.BurstCPU(64)
	if done != want {
		t.Errorf("post-write conflict done = %d, want %d", done, want)
	}
}

func TestRefreshBlackoutAndRowClosure(t *testing.T) {
	tm := StackedTiming()
	ch := NewChannel(tm, 1, 8)
	period := tm.cpu(tm.REFI)
	dur := tm.cpu(tm.RFC)
	// Open a row in epoch 0.
	ch.Access(OpRead, loc(0, 7, 0), 0, 64)
	// Access the same row in epoch 1: the refresh closed it, so this is an
	// ACT again, and if we land inside the blackout we are pushed out.
	start := period + dur/2
	done, rr := ch.Access(OpRead, loc(0, 7, 64), start, 64)
	if rr != RowEmpty {
		t.Errorf("post-refresh access rr = %v, want empty", rr)
	}
	wantMin := period + dur + tm.cpu(tm.RCD+tm.CL)
	if done < wantMin {
		t.Errorf("post-refresh done = %d, want >= %d (blackout respected)", done, wantMin)
	}
	if ch.Stats().Refreshes == 0 {
		t.Error("refresh not counted")
	}
}

func TestStatsAccumulation(t *testing.T) {
	tm := noRefresh()
	ch := NewChannel(tm, 1, 8)
	ch.Access(OpRead, loc(0, 1, 0), 0, 64)
	ch.Access(OpRead, loc(0, 1, 64), 1000, 64)
	ch.Access(OpWrite, loc(0, 2, 0), 5000, 128)
	s := ch.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("reads=%d writes=%d", s.Reads, s.Writes)
	}
	if s.BytesRead != 128 || s.BytesWrit != 128 {
		t.Errorf("bytesRead=%d bytesWrit=%d", s.BytesRead, s.BytesWrit)
	}
	if s.RowHits != 1 || s.RowMisses != 2 {
		t.Errorf("rowHits=%d rowMisses=%d", s.RowHits, s.RowMisses)
	}
	if rhr := s.RowHitRate(); rhr < 0.33 || rhr > 0.34 {
		t.Errorf("row hit rate = %v", rhr)
	}
	ch.ResetStats()
	if ch.Stats().Reads != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, RowHits: 2, BytesRead: 64}
	b := Stats{Reads: 2, RowMisses: 1, BytesWrit: 128}
	a.Add(b)
	if a.Reads != 3 || a.RowHits != 2 || a.RowMisses != 1 || a.BytesRead != 64 || a.BytesWrit != 128 {
		t.Errorf("Add result: %+v", a)
	}
}

func TestRowResultString(t *testing.T) {
	if RowHit.String() != "hit" || RowEmpty.String() != "empty" || RowConflict.String() != "conflict" {
		t.Error("RowResult strings wrong")
	}
	if RowResult(99).String() == "" {
		t.Error("unknown RowResult should still format")
	}
}
