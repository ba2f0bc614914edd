// Package workloads defines the multiprogrammed mixes used throughout the
// evaluation, mirroring the paper's Table V: Q1–Q24 quad-core, E1–E16
// eight-core and S1–S8 sixteen-core combinations of SPEC-like benchmarks,
// composed to cover high, moderate and low memory intensity.
//
// The specific named workloads the paper calls out keep their qualitative
// character here: Q2/Q4/Q5 are streaming-dominated (>90% fully-utilized
// 512B blocks in Figure 2), Q7/Q8/Q19/Q23 are irregular (<30%), Q17 sends
// ~1% of accesses to small blocks while Q23 sends ~48% (Figure 10).
package workloads

import (
	"fmt"

	"bimodal/internal/addr"
	"bimodal/internal/trace"
)

// Mix is one multiprogrammed workload.
type Mix struct {
	// Name is the workload identifier (Q*, E*, S*, or a traffic label).
	Name string
	// Benchmarks lists the per-core benchmark names (length = core count).
	// For a traffic mix each entry is the mix name: every core replays the
	// whole tenant interleave, not one benchmark.
	Benchmarks []string
	// HighIntensity marks workloads the paper stars (LLSC miss rate >= 10%).
	HighIntensity bool
	// Traffic, when non-nil, declares the multi-tenant composition each
	// core replays (see traffic.go); Benchmarks then only carries the core
	// count and display name.
	Traffic *Traffic
}

// Cores returns the number of cores in the mix.
func (m Mix) Cores() int { return len(m.Benchmarks) }

// FootprintBytes returns the mix's total memory footprint (the sum of the
// per-benchmark footprints; Table V reports ~990MB average for 4-core and
// ~2.1GB for 8-core workloads).
func (m Mix) FootprintBytes() uint64 {
	if m.Traffic != nil {
		return uint64(m.Cores()) * m.Traffic.footprintBytes()
	}
	var total uint64
	for _, b := range m.Benchmarks {
		total += trace.MustProfile(b).FootprintBytes()
	}
	return total
}

// CoreBase returns the base physical address of core i's footprint. Each
// core receives a disjoint 4GB slice of the 40-bit address space, so
// multiprogrammed benchmarks never share data (the paper's DRAM cache sits
// behind a coherent LLSC and multiprogrammed SPEC shares nothing).
func CoreBase(i int) addr.Phys { return addr.Phys(uint64(i) << 32) }

// CoreSeed derives core i's generator seed from the run seed: it hashes
// the core index so identical benchmarks on different cores produce
// distinct streams. Generators and the pooled-run reset path share this
// one derivation, so a reseeded generator replays exactly the stream a
// fresh Generators call would produce.
func CoreSeed(seed uint64, i int) uint64 {
	return seed*0x9E3779B9 + uint64(i)*0x85EBCA6B + 1
}

// Stream identifies one core's access stream by exactly what Generator
// builds it from: the benchmark profile, or for a traffic mix its tenant
// composition, which the mix name encodes in full (FromSpec's label; the
// static mixes' names are fixed); the core slot, which places the
// footprint at CoreBase; and the core's CoreSeed. Two cores whose Streams
// are equal draw identical streams, whatever mix, scheme or run options
// they belong to. A Stream is a comparable value.
type Stream struct {
	source  string
	traffic bool
	slot    int
	seed    uint64
}

// Stream returns core i's stream identity under seed: Generator(seed, i)
// draws it.
func (m Mix) Stream(seed uint64, i int) Stream {
	if m.Traffic != nil {
		return Stream{source: m.Name, traffic: true, slot: i, seed: CoreSeed(seed, i)}
	}
	return Stream{source: m.Benchmarks[i], slot: i, seed: CoreSeed(seed, i)}
}

// Generators instantiates one deterministic generator per core. seed
// decorrelates reruns (per-core derivation in CoreSeed).
func (m Mix) Generators(seed uint64) []trace.Generator {
	gens := make([]trace.Generator, len(m.Benchmarks))
	for i := range gens {
		gens[i] = m.Generator(seed, i)
	}
	return gens
}

// Generator instantiates core i's generator alone, identical to
// Generators(seed)[i]: its stream starts at CoreBase(i) and is seeded with
// CoreSeed(seed, i).
func (m Mix) Generator(seed uint64, i int) trace.Generator {
	if m.Traffic != nil {
		return trace.NewInterleaver(m.Name, m.Traffic.streams(), CoreBase(i),
			float64(m.Traffic.SharedPct)/100, m.Traffic.SharedPages, CoreSeed(seed, i))
	}
	return trace.NewSynthetic(trace.MustProfile(m.Benchmarks[i]), CoreBase(i), CoreSeed(seed, i))
}

// quad builds a Mix with validation deferred to init.
func quad(name string, hi bool, b ...string) Mix {
	return Mix{Name: name, Benchmarks: b, HighIntensity: hi}
}

// quadMixes are the 24 quad-core workloads.
var quadMixes = []Mix{
	quad("Q1", true, "mcf", "lbm", "milc", "soplex"),
	quad("Q2", true, "lbm", "libquantum", "swim", "leslie3d"), // streaming: ~100% utilization
	quad("Q3", true, "mcf", "libquantum", "omnetpp", "milc"),
	quad("Q4", true, "libquantum", "swim", "lbm", "applu"),    // streaming
	quad("Q5", true, "leslie3d", "lbm", "swim", "libquantum"), // streaming
	quad("Q6", true, "soplex", "milc", "lbm", "omnetpp"),
	quad("Q7", true, "mcf", "art", "twolf", "omnetpp"), // irregular: low utilization
	quad("Q8", true, "mcf", "mcf", "art", "parser"),    // irregular
	quad("Q9", true, "GemsFDTD", "milc", "zeusmp", "soplex"),
	quad("Q10", true, "sphinx3", "soplex", "lbm", "mcf"),
	quad("Q11", false, "astar", "omnetpp", "gcc", "sphinx3"),
	quad("Q12", false, "equake", "zeusmp", "cactusADM", "wupwise"),
	quad("Q13", false, "bzip2", "gcc", "hmmer", "gobmk"),
	quad("Q14", false, "sphinx3", "astar", "equake", "bzip2"),
	quad("Q15", true, "milc", "GemsFDTD", "lbm", "leslie3d"),
	quad("Q16", false, "wupwise", "cactusADM", "astar", "gcc"),
	quad("Q17", true, "libquantum", "lbm", "swim", "soplex"), // ~1% small-block accesses
	quad("Q18", false, "twolf", "vpr", "parser", "gobmk"),
	quad("Q19", true, "art", "mcf", "omnetpp", "twolf"), // irregular
	quad("Q20", false, "hmmer", "bzip2", "sphinx3", "wupwise"),
	quad("Q21", true, "mcf", "milc", "GemsFDTD", "omnetpp"),
	quad("Q22", false, "equake", "astar", "zeusmp", "vpr"),
	quad("Q23", true, "mcf", "art", "parser", "omnetpp"), // irregular: ~48% small-block accesses
	quad("Q24", false, "gcc", "gobmk", "equake", "cactusADM"),
}

// eightMixes are the 16 eight-core workloads, built by pairing quad mixes
// so intensity coverage carries over.
var eightMixes = []Mix{
	quad("E1", true, "mcf", "lbm", "milc", "soplex", "libquantum", "swim", "omnetpp", "GemsFDTD"),
	quad("E2", true, "lbm", "libquantum", "swim", "leslie3d", "applu", "lbm", "libquantum", "swim"),
	quad("E3", true, "mcf", "art", "twolf", "omnetpp", "parser", "mcf", "art", "vpr"),
	quad("E4", true, "soplex", "milc", "GemsFDTD", "zeusmp", "lbm", "mcf", "omnetpp", "sphinx3"),
	quad("E5", false, "astar", "omnetpp", "gcc", "sphinx3", "bzip2", "hmmer", "gobmk", "wupwise"),
	quad("E6", true, "milc", "GemsFDTD", "lbm", "leslie3d", "swim", "libquantum", "zeusmp", "applu"),
	quad("E7", false, "equake", "zeusmp", "cactusADM", "wupwise", "astar", "gcc", "vpr", "twolf"),
	quad("E8", true, "mcf", "mcf", "milc", "lbm", "art", "soplex", "omnetpp", "GemsFDTD"),
	quad("E9", true, "libquantum", "lbm", "swim", "soplex", "leslie3d", "applu", "milc", "equake"),
	quad("E10", false, "bzip2", "gcc", "hmmer", "gobmk", "sphinx3", "astar", "equake", "wupwise"),
	quad("E11", true, "mcf", "omnetpp", "soplex", "sphinx3", "milc", "art", "GemsFDTD", "lbm"),
	quad("E12", true, "lbm", "swim", "libquantum", "leslie3d", "mcf", "milc", "soplex", "omnetpp"),
	quad("E13", false, "twolf", "vpr", "parser", "gobmk", "gcc", "bzip2", "hmmer", "astar"),
	quad("E14", true, "GemsFDTD", "milc", "zeusmp", "cactusADM", "lbm", "leslie3d", "swim", "applu"),
	quad("E15", true, "mcf", "art", "parser", "omnetpp", "twolf", "mcf", "soplex", "milc"),
	quad("E16", true, "soplex", "lbm", "mcf", "libquantum", "omnetpp", "GemsFDTD", "swim", "sphinx3"),
}

// sixteenMixes are the 8 sixteen-core workloads, built from pairs of
// eight-core mixes.
var sixteenMixes = []Mix{
	{Name: "S1", HighIntensity: true, Benchmarks: append(append([]string{}, eightMixes[0].Benchmarks...), eightMixes[1].Benchmarks...)},
	{Name: "S2", HighIntensity: true, Benchmarks: append(append([]string{}, eightMixes[2].Benchmarks...), eightMixes[3].Benchmarks...)},
	{Name: "S3", HighIntensity: false, Benchmarks: append(append([]string{}, eightMixes[4].Benchmarks...), eightMixes[6].Benchmarks...)},
	{Name: "S4", HighIntensity: true, Benchmarks: append(append([]string{}, eightMixes[5].Benchmarks...), eightMixes[8].Benchmarks...)},
	{Name: "S5", HighIntensity: true, Benchmarks: append(append([]string{}, eightMixes[7].Benchmarks...), eightMixes[10].Benchmarks...)},
	{Name: "S6", HighIntensity: false, Benchmarks: append(append([]string{}, eightMixes[9].Benchmarks...), eightMixes[12].Benchmarks...)},
	{Name: "S7", HighIntensity: true, Benchmarks: append(append([]string{}, eightMixes[11].Benchmarks...), eightMixes[13].Benchmarks...)},
	{Name: "S8", HighIntensity: true, Benchmarks: append(append([]string{}, eightMixes[14].Benchmarks...), eightMixes[15].Benchmarks...)},
}

func init() {
	validate := func(mixes []Mix, cores int) {
		for _, m := range mixes {
			if len(m.Benchmarks) != cores {
				panic(fmt.Sprintf("workloads: %s has %d benchmarks, want %d", m.Name, len(m.Benchmarks), cores))
			}
			for _, b := range m.Benchmarks {
				trace.MustProfile(b) // panics on unknown names
			}
		}
	}
	validate(quadMixes, 4)
	validate(eightMixes, 8)
	validate(sixteenMixes, 16)
}

// QuadCore returns the 24 quad-core mixes.
func QuadCore() []Mix { return append([]Mix(nil), quadMixes...) }

// EightCore returns the 16 eight-core mixes.
func EightCore() []Mix { return append([]Mix(nil), eightMixes...) }

// SixteenCore returns the 8 sixteen-core mixes.
func SixteenCore() []Mix { return append([]Mix(nil), sixteenMixes...) }

// ForCores returns the mix table for a core count (4, 8 or 16).
func ForCores(n int) ([]Mix, error) {
	switch n {
	case 4:
		return QuadCore(), nil
	case 8:
		return EightCore(), nil
	case 16:
		return SixteenCore(), nil
	default:
		return nil, fmt.Errorf("workloads: no mixes for %d cores (supported: 4, 8, 16)", n)
	}
}

// ByName looks a mix up by its identifier.
func ByName(name string) (Mix, error) {
	for _, tbl := range [][]Mix{quadMixes, eightMixes, sixteenMixes, dcMixes} {
		for _, m := range tbl {
			if m.Name == name {
				return m, nil
			}
		}
	}
	return Mix{}, fmt.Errorf("workloads: unknown mix %q", name)
}

// MustByName is ByName that panics on unknown names.
func MustByName(name string) Mix {
	m, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}
