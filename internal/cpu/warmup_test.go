package cpu

import (
	"testing"

	"bimodal/internal/trace"
)

func TestRunMeasuredSubtractsWarmup(t *testing.T) {
	f := &fakeScheme{latency: 100}
	var accs []trace.Access
	for i := 0; i < 20; i++ {
		accs = append(accs, trace.Access{Addr: 0, Gap: 10})
	}
	g := gen(accs...)
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8}, nil)
	res := runMeasured(t, e, 5, 10)
	r := res[0]
	if r.Accesses != 10 {
		t.Errorf("measured accesses = %d, want 10", r.Accesses)
	}
	if r.Insts != 100 {
		t.Errorf("measured insts = %d, want 100", r.Insts)
	}
	// Cycles cover only the measured window: ~10 gaps of 10 cycles plus
	// the drained final miss, far less than the 15-access total timeline.
	if r.Cycles <= 0 || r.Cycles > 400 {
		t.Errorf("measured cycles = %d", r.Cycles)
	}
	// The scheme saw all 15 accesses.
	if len(f.times) != 15 {
		t.Errorf("scheme saw %d accesses, want 15", len(f.times))
	}
}

func TestRunMeasuredZeroWarmup(t *testing.T) {
	f := &fakeScheme{latency: 10}
	g := gen(trace.Access{Addr: 0, Gap: 1})
	e := NewEngine(f, []trace.Generator{g}, DefaultCoreConfig(), nil)
	res := run(t, e, 3)
	if res[0].Accesses != 3 {
		t.Errorf("accesses = %d", res[0].Accesses)
	}
}

func TestRunMeasuredTimeContinues(t *testing.T) {
	// The measured window continues the warmup timeline (caches and banks
	// stay warm; time does not restart).
	f := &fakeScheme{latency: 10}
	g := gen(trace.Access{Addr: 0, Gap: 100})
	e := NewEngine(f, []trace.Generator{g}, CoreConfig{CPIBase: 1, MSHRs: 8}, nil)
	runMeasured(t, e, 2, 2)
	for i := 1; i < len(f.times); i++ {
		if f.times[i] <= f.times[i-1] {
			t.Fatalf("time went backwards at access %d: %v", i, f.times)
		}
	}
}
