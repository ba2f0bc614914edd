package core

import "testing"

func TestDefaultParamsValid(t *testing.T) {
	for _, size := range []uint64{64 << 20, 128 << 20, 256 << 20, 512 << 20} {
		p := DefaultParams(size)
		if err := p.Validate(); err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}

func TestAllowedStatesPaper2KB(t *testing.T) {
	// The paper: a 2KB set with 512B big blocks allows {(4,0),(3,8),(2,16)}.
	p := DefaultParams(128 << 20)
	states := p.AllowedStates()
	want := []State{{4, 0}, {3, 8}, {2, 16}}
	if len(states) != len(want) {
		t.Fatalf("states = %v", states)
	}
	for i, s := range want {
		if states[i] != s {
			t.Errorf("state %d = %v, want %v", i, states[i], s)
		}
	}
	if p.MaxAssoc() != 18 {
		t.Errorf("max assoc = %d, want 18", p.MaxAssoc())
	}
}

func TestAllowedStatesPaper4KB(t *testing.T) {
	// The paper: a 4KB set allows {(8,0),(7,8),(6,16),(5,24),(4,32)}.
	p := DefaultParams(128 << 20)
	p.SetBytes = 4096
	p.MinBig = 4
	states := p.AllowedStates()
	want := []State{{8, 0}, {7, 8}, {6, 16}, {5, 24}, {4, 32}}
	if len(states) != len(want) {
		t.Fatalf("states = %v", states)
	}
	for i, s := range want {
		if states[i] != s {
			t.Errorf("state %d = %v, want %v", i, states[i], s)
		}
	}
	if p.MaxAssoc() != 36 {
		t.Errorf("max assoc = %d, want 36", p.MaxAssoc())
	}
}

func TestTagBursts(t *testing.T) {
	p := DefaultParams(128 << 20)
	if p.TagBurstsPerSet() != 2 {
		t.Errorf("2KB set tag bursts = %d, want 2 (paper: 18 tags in 2 bursts)", p.TagBurstsPerSet())
	}
	p.SetBytes = 4096
	p.MinBig = 4
	if p.TagBurstsPerSet() != 3 {
		t.Errorf("4KB set tag bursts = %d, want 3 (paper: 36 tags in 3 bursts)", p.TagBurstsPerSet())
	}
}

func TestStateValid(t *testing.T) {
	p := DefaultParams(128 << 20)
	for _, s := range p.AllowedStates() {
		if !p.stateValid(s) {
			t.Errorf("allowed state %v reported invalid", s)
		}
	}
	for _, s := range []State{{5, 0}, {4, 8}, {3, 0}, {1, 24}, {2, 15}} {
		if p.stateValid(s) {
			t.Errorf("state %v should be invalid", s)
		}
	}
}

func TestColumns(t *testing.T) {
	p := DefaultParams(128 << 20)
	if p.BigColumn(0) != 0 || p.BigColumn(3) != 1536 {
		t.Errorf("big columns: %d %d", p.BigColumn(0), p.BigColumn(3))
	}
	// Small way 0 is the rightmost 64B of the 2KB page.
	if p.SmallColumn(0) != 2048-64 {
		t.Errorf("small column 0 = %d", p.SmallColumn(0))
	}
	if p.SmallColumn(15) != 2048-16*64 {
		t.Errorf("small column 15 = %d", p.SmallColumn(15))
	}
	// The (2,16) state: big ways end at 1024, small ways start at 1024.
	if p.BigColumn(2) != p.SmallColumn(15) {
		t.Errorf("layout overlap: big end %d vs small start %d", p.BigColumn(2), p.SmallColumn(15))
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func(mutate func(*Params)) Params {
		p := DefaultParams(128 << 20)
		mutate(&p)
		return p
	}
	bad := []Params{
		mk(func(p *Params) { p.CacheBytes = 100 }),
		mk(func(p *Params) { p.SetBytes = 1000 }),
		mk(func(p *Params) { p.BigBlock = 64 }),
		mk(func(p *Params) { p.BigBlock = 4096 }),
		mk(func(p *Params) { p.BigBlock = p.SetBytes * 2 }),
		mk(func(p *Params) { p.MinBig = -1 }),
		mk(func(p *Params) { p.MinBig = 100 }),
		mk(func(p *Params) { p.Threshold = 0 }),
		mk(func(p *Params) { p.Threshold = 99 }),
		mk(func(p *Params) { p.PredictorBits = 0 }),
		mk(func(p *Params) { p.AdaptInterval = 0 }),
		mk(func(p *Params) { p.Weight = 0 }),
		// Wider than the uint32 occupancy masks: 128 big ways, 60 small.
		mk(func(p *Params) { p.SetBytes, p.BigBlock, p.MinBig, p.Threshold = 16384, 128, 1, 2 }),
		mk(func(p *Params) { p.SetBytes, p.BigBlock, p.MinBig, p.Threshold = 4096, 256, 1, 2 }),
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d should fail validation: %+v", i, p)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	p := DefaultParams(128 << 20)
	if p.MaxBig() != 4 || p.SubBlocks() != 8 || p.MaxSmall() != 16 {
		t.Errorf("derived: maxBig=%d sub=%d maxSmall=%d", p.MaxBig(), p.SubBlocks(), p.MaxSmall())
	}
	if p.NumSets() != (128<<20)/2048 {
		t.Errorf("numSets = %d", p.NumSets())
	}
	if p.MetadataBytesPerSet() != 128 {
		t.Errorf("metadata bytes per set = %d, want 128", p.MetadataBytesPerSet())
	}
	s := State{X: 3, Y: 8}
	if s.Assoc() != 11 || s.String() != "(3,8)" {
		t.Errorf("state methods: %d %s", s.Assoc(), s)
	}
}

func TestSensitivityConfigurations(t *testing.T) {
	// Figure 12 explores 256B and 1024B big blocks and 8-way big assoc.
	p := DefaultParams(64 << 20)
	p.BigBlock = 256
	p.MinBig = 4
	p.Threshold = 3 // scaled to the 4 sub-blocks of a 256B big block
	if err := p.Validate(); err != nil {
		t.Errorf("256B config: %v", err)
	}
	if p.MaxBig() != 8 || p.SubBlocks() != 4 {
		t.Errorf("256B derived: %d %d", p.MaxBig(), p.SubBlocks())
	}
	p = DefaultParams(512 << 20)
	p.BigBlock = 1024
	p.SetBytes = 4096
	p.MinBig = 2
	if err := p.Validate(); err != nil {
		t.Errorf("1024B config: %v", err)
	}
	if p.MaxBig() != 4 || p.SubBlocks() != 16 || p.MaxSmall() != 32 {
		t.Errorf("1024B derived: %d %d %d", p.MaxBig(), p.SubBlocks(), p.MaxSmall())
	}
}
