package cpu

import (
	"testing"

	"bimodal/internal/addr"
	"bimodal/internal/trace"
)

func TestROBSerializesFarApartMisses(t *testing.T) {
	// Two misses separated by more instructions than the ROB window: the
	// second cannot issue until the first completes.
	f := &fakeScheme{latency: 10000}
	g := gen(
		trace.Access{Addr: 0, Gap: 10},
		trace.Access{Addr: 64, Gap: 500}, // 500 insts > 192-entry ROB
	)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8, ROBInsts: 192}, nil)
	run(t, e, 2)
	if f.times[1]-f.times[0] < 10000 {
		t.Errorf("second miss issued %d cycles after first; ROB should serialize", f.times[1]-f.times[0])
	}
}

func TestROBAllowsNearbyMissesToOverlap(t *testing.T) {
	f := &fakeScheme{latency: 10000}
	g := gen(
		trace.Access{Addr: 0, Gap: 10},
		trace.Access{Addr: 64, Gap: 50}, // within the window
	)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8, ROBInsts: 192}, nil)
	run(t, e, 2)
	if f.times[1]-f.times[0] >= 10000 {
		t.Errorf("nearby miss serialized (%d cycles apart); should overlap", f.times[1]-f.times[0])
	}
}

func TestROBDisabledMatchesOldBehaviour(t *testing.T) {
	f := &fakeScheme{latency: 10000}
	g := gen(
		trace.Access{Addr: 0, Gap: 10},
		trace.Access{Addr: 64, Gap: 500},
	)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8, ROBInsts: 0}, nil)
	run(t, e, 2)
	if f.times[1]-f.times[0] >= 10000 {
		t.Errorf("with ROB disabled, far-apart misses should overlap")
	}
}

func TestROBWindowBoundary(t *testing.T) {
	// Gap exactly one instruction under the window: still overlaps.
	f := &fakeScheme{latency: 10000}
	g := gen(
		trace.Access{Addr: 0, Gap: 10},
		trace.Access{Addr: 64, Gap: 191},
	)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8, ROBInsts: 192}, nil)
	run(t, e, 2)
	if f.times[1]-f.times[0] >= 10000 {
		t.Errorf("miss at window edge serialized; want overlap")
	}
}

func TestROBDefaultEnabled(t *testing.T) {
	if DefaultCoreConfig().ROBInsts != 192 {
		t.Errorf("default ROB = %d, want 192", DefaultCoreConfig().ROBInsts)
	}
}

func TestROBStreamingSerialization(t *testing.T) {
	// A low-intensity stream (gaps far beyond the ROB) with memory latency
	// exceeding the inter-miss compute time runs at one miss-latency per
	// access: the ROB window fully serializes the misses.
	const n, gap, lat = 50, 1000, 1200 // gap*CPI = 500 < lat
	var accs []trace.Access
	for i := 0; i < n; i++ {
		accs = append(accs, trace.Access{Addr: addr.Phys(i * 64), Gap: gap})
	}
	f := &fakeScheme{latency: lat}
	e := NewEngine(f, []trace.Generator{gen(accs...)}, CoreConfig{CPIBase: 0.5, MSHRs: 8, ROBInsts: 192}, nil)
	res := run(t, e, n)
	expected := int64(n * lat)
	if res[0].Cycles < expected-2*lat || res[0].Cycles > expected+2*lat {
		t.Errorf("cycles = %d; expected ~%d (one latency per serialized miss)", res[0].Cycles, expected)
	}
}
