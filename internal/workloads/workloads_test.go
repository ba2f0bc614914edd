package workloads

import (
	"testing"

	"bimodal/internal/trace"
)

func TestTableSizes(t *testing.T) {
	if len(QuadCore()) != 24 {
		t.Errorf("quad mixes = %d, want 24", len(QuadCore()))
	}
	if len(EightCore()) != 16 {
		t.Errorf("eight mixes = %d, want 16", len(EightCore()))
	}
	if len(SixteenCore()) != 8 {
		t.Errorf("sixteen mixes = %d, want 8", len(SixteenCore()))
	}
}

func TestCoreCounts(t *testing.T) {
	for _, m := range QuadCore() {
		if m.Cores() != 4 {
			t.Errorf("%s has %d cores", m.Name, m.Cores())
		}
	}
	for _, m := range EightCore() {
		if m.Cores() != 8 {
			t.Errorf("%s has %d cores", m.Name, m.Cores())
		}
	}
	for _, m := range SixteenCore() {
		if m.Cores() != 16 {
			t.Errorf("%s has %d cores", m.Name, m.Cores())
		}
	}
}

func TestForCores(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		mixes, err := ForCores(n)
		if err != nil || len(mixes) == 0 {
			t.Errorf("ForCores(%d): %v", n, err)
		}
	}
	if _, err := ForCores(2); err == nil {
		t.Error("ForCores(2) should fail")
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("Q23")
	if err != nil || m.Name != "Q23" {
		t.Fatalf("ByName(Q23): %v %v", m, err)
	}
	if _, err := ByName("Z9"); err == nil {
		t.Error("expected error for unknown mix")
	}
	if MustByName("E1").Cores() != 8 {
		t.Error("MustByName(E1) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName should panic on unknown")
		}
	}()
	MustByName("nope")
}

func TestGeneratorsDisjointFootprints(t *testing.T) {
	m := MustByName("Q2")
	gens := m.Generators(1)
	if len(gens) != 4 {
		t.Fatalf("generators = %d", len(gens))
	}
	for i, g := range gens {
		base, limit := CoreBase(i), CoreBase(i+1)
		for j := 0; j < 2000; j++ {
			a := g.Next()
			if a.Addr < base || a.Addr >= limit {
				t.Fatalf("core %d access %x outside its slice [%x,%x)", i, a.Addr, base, limit)
			}
		}
	}
}

func TestSameBenchmarkDifferentCoresDiffer(t *testing.T) {
	// Q8 runs mcf on cores 0 and 1; their streams must differ (beyond the
	// base offset).
	m := MustByName("Q8")
	gens := m.Generators(1)
	same := 0
	for i := 0; i < 1000; i++ {
		a := gens[0].Next().Addr - CoreBase(0)
		b := gens[1].Next().Addr - CoreBase(1)
		if a == b {
			same++
		}
	}
	if same > 100 {
		t.Errorf("%d/1000 identical offsets between mcf copies", same)
	}
}

func TestHighIntensityMixesExist(t *testing.T) {
	hi := 0
	for _, m := range QuadCore() {
		if m.HighIntensity {
			hi++
		}
	}
	if hi < 8 {
		t.Errorf("only %d high-intensity quad mixes", hi)
	}
}

func TestStreamingMixesAreStreaming(t *testing.T) {
	// The mixes the paper highlights as nearly fully utilized (Q2, Q4, Q5)
	// must be composed of high-SeqFrac benchmarks.
	for _, name := range []string{"Q2", "Q4", "Q5"} {
		m := MustByName(name)
		for _, b := range m.Benchmarks {
			if trace.MustProfile(b).SeqFrac < 0.8 {
				t.Errorf("%s contains non-streaming benchmark %s", name, b)
			}
		}
	}
	// And the irregular ones must not be.
	for _, name := range []string{"Q7", "Q8", "Q19", "Q23"} {
		m := MustByName(name)
		for _, b := range m.Benchmarks {
			if trace.MustProfile(b).SeqFrac > 0.5 {
				t.Errorf("%s contains streaming benchmark %s", name, b)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := MustByName("E1").Generators(5)
	b := MustByName("E1").Generators(5)
	for c := range a {
		for i := 0; i < 500; i++ {
			if a[c].Next() != b[c].Next() {
				t.Fatalf("core %d diverged at %d", c, i)
			}
		}
	}
}

// TestStreamIdentity pins what makes two cores' streams equal: the
// benchmark or tenant composition, the slot and the seed, never the mix a
// classic benchmark runs in.
func TestStreamIdentity(t *testing.T) {
	q1, q7, q8 := MustByName("Q1"), MustByName("Q7"), MustByName("Q8")
	kv, web := MustByName("KV4"), MustByName("WEB4")
	for _, c := range []struct {
		what string
		a, b Stream
		same bool
	}{
		{"mcf on core 0 of Q1 and Q7", q1.Stream(3, 0), q7.Stream(3, 0), true},
		{"core 0 of Q1 under two seeds", q1.Stream(3, 0), q1.Stream(4, 0), false},
		{"mcf on cores 0 and 1 of Q8", q8.Stream(3, 0), q8.Stream(3, 1), false},
		{"lbm and art on core 1", q1.Stream(3, 1), q7.Stream(3, 1), false},
		{"core 2 of KV4 twice", kv.Stream(3, 2), kv.Stream(3, 2), true},
		{"cores 1 and 2 of KV4", kv.Stream(3, 1), kv.Stream(3, 2), false},
		{"core 1 of KV4 and WEB4", kv.Stream(3, 1), web.Stream(3, 1), false},
	} {
		if got := c.a == c.b; got != c.same {
			t.Errorf("%s: same stream %v, want %v", c.what, got, c.same)
		}
	}
	// The streams Stream calls equal are the ones Generator draws.
	a, b := q1.Generator(3, 0), q7.Generator(3, 0)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("access %d: Q1 core 0 drew %+v, Q7 core 0 %+v", i, x, y)
		}
	}
}
