package memctrl

import (
	"testing"

	"bimodal/internal/addr"
)

// TestControllerZeroAlloc asserts the controller's access paths never
// allocate: write queues, their rings and the drain scratch are sized at
// construction, so enqueues, half-drains, age-outs, flushes and resets
// reuse them.
func TestControllerZeroAlloc(t *testing.T) {
	for _, cfg := range []Config{StackedConfig(2), OffChipConfig(2)} {
		c := New(cfg)
		now := int64(0)
		i := uint64(0)
		if got := testing.AllocsPerRun(1000, func() {
			p := addr.Phys(i*2048*5 + i%32*64)
			l := c.Map(p + 1<<20)
			now += 40
			i++
			c.Write(p, now, 64)
			c.WriteAt(l, now-30, 64)
			c.Read(p, now, 64)
			c.ReadAt(l, now, 64)
			c.Open(p, now)
			c.OpenAt(l, now)
			if i%64 == 0 {
				c.FlushWrites()
			}
			if i%256 == 0 {
				c.Reset()
				now = 0
			}
		}); got != 0 {
			t.Errorf("%v: %.1f allocs per round of accesses, want 0", c, got)
		}
	}
}
