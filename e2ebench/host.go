package main

import "time"

// Host times are scaled to a reference host speed. On a shared 2-CPU VM
// the host's speed was seen to drift by a factor of 1.6 over minutes as
// other tenants came and went; the same cell then took 50 ms or 80 ms, and
// medians of raw wall time spread by a third from run to run. So the
// benchmark times a fixed reference loop between units and reports each
// host time as wall time × refNominal ÷ the loop's time around it: the time
// the work would take on a host where the loop takes exactly refNominal.
// The loop shares no code with the simulator, so only the host moves it.
const refNominal = time.Millisecond

const (
	// refWords sizes the loop's table at 1 MB. Of tables of 128 KB,
	// 512 KB, 1 MB and 8 MB, pure arithmetic, and blends of arithmetic
	// with the 1 MB table, the 1 MB table alone slowed most like the
	// simulator under contention: over ten runs it cut the spread of the
	// median cell time of q7-bimodal and dc8-tenants from 19% to 3-4%.
	refWords = 1 << 17
	// refIters makes the loop take about refNominal on an idle host.
	refIters = 200_000
)

var (
	refTable = make([]uint64, refWords)
	refSink  uint64
)

// refLoop times refIters random read-modify-writes of refTable.
func refLoop() time.Duration {
	t0 := time.Now()
	x, sum := uint64(88172645463325252), uint64(0)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		refTable[j] += uint64(i)
		sum += refTable[(j*7)&(refWords-1)]
	}
	refSink += sum
	return time.Since(t0)
}

// scaled converts a wall time to seconds at reference speed, given the
// reference loop's time measured around it.
func scaled(wall, ref time.Duration) float64 {
	return wall.Seconds() * refNominal.Seconds() / ref.Seconds()
}
