package trace

import "testing"

// TestSyntheticNextZeroAlloc asserts steady-state stream generation is
// allocation-free: the pending episode buffer is drained by index and
// reused, so once it has grown to the longest episode seen, Next never
// allocates. The generator is deterministic for a fixed seed, so the
// warmup below reliably reaches that steady state.
func TestSyntheticNextZeroAlloc(t *testing.T) {
	for _, name := range []string{"mcf", "lbm", "omnetpp"} {
		g := NewSynthetic(MustProfile(name), 0, 4)
		for i := 0; i < 1<<20; i++ {
			g.Next()
		}
		if got := testing.AllocsPerRun(5000, func() { g.Next() }); got != 0 {
			t.Errorf("%s: Next allocates %.2f allocs/op, want 0", name, got)
		}
	}
}

// TestFillZeroAlloc asserts Fill is as allocation-free as Next once the
// episode buffers have grown, for a plain stream and a tenant weave.
func TestFillZeroAlloc(t *testing.T) {
	buf := make([]Access, 2048)
	gens := map[string]Filler{
		"mcf": NewSynthetic(MustProfile("mcf"), 0, 4),
		"dc4": NewInterleaver("dc4", []TenantStream{
			{Prof: MustProfile("kvstore"), Weight: 2},
			{Prof: MustProfile("webserve"), Weight: 1},
			{Prof: MustProfile("scan"), Weight: 1},
		}, 0, 0.05, 64, 4),
	}
	for name, g := range gens {
		for i := 0; i < 512; i++ {
			g.Fill(buf)
		}
		if got := testing.AllocsPerRun(200, func() { g.Fill(buf) }); got != 0 {
			t.Errorf("%s: Fill allocates %.2f allocs/op, want 0", name, got)
		}
	}
}
