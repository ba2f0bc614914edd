package memctrl

import (
	"strings"
	"testing"

	"bimodal/internal/snapshot"
)

// queuedWrite is one write-queue entry as the snapshot codec lays it out.
type queuedWrite struct {
	key, col  uint64
	bytes, at int64
}

// sealQueues hand-builds a sealed blob of a freshly built controller's
// state with the given write queues, one slice per channel.
func sealQueues(cfg Config, queues [][]queuedWrite) []byte {
	c := New(cfg)
	w := snapshot.NewWriter()
	w.Tag("memctrl")
	for _, ch := range c.channels {
		ch.SnapshotState(w)
	}
	for _, q := range queues {
		w.U32(uint32(len(q)))
		for _, e := range q {
			w.U64(e.key)
			w.U64(e.col)
			w.I64(e.bytes)
			w.I64(e.at)
		}
	}
	return snapshot.Seal("memctrl-test", w.Bytes())
}

// TestRestoreRejectsBadQueues restores hand-built blobs. A queue longer
// than the depth, which no live controller holds, must fail the restore
// with an error; a well-formed blob whose key names the last bank and the
// widest row restores and drains.
func TestRestoreRejectsBadQueues(t *testing.T) {
	cfg := OffChipConfig(2) // two ranks of eight banks: 16-bank drain keys hold 60-bit rows
	cfg.WriteQueueDepth = 2
	ok := queuedWrite{key: ^uint64(0), col: 64, bytes: 64, at: 100}
	cases := []struct {
		name  string
		queue []queuedWrite // channel 1's queue
		want  string
	}{
		{"valid", []queuedWrite{ok, ok}, ""},
		{"longer than depth", []queuedWrite{ok, ok, ok}, "depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic: %v", p)
				}
			}()
			_, payload, err := snapshot.Open(sealQueues(cfg, [][]queuedWrite{nil, tc.queue}))
			if err != nil {
				t.Fatal(err)
			}
			c := New(cfg)
			r := snapshot.NewReader(payload)
			c.RestoreState(r)
			if tc.want == "" {
				if r.Err() != nil {
					t.Fatalf("restore: %v", r.Err())
				}
				c.FlushWrites()
				if got := c.ChannelStats(1).Writes; got != int64(len(tc.queue)) {
					t.Errorf("flushed %d writes, want %d", got, len(tc.queue))
				}
				return
			}
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("restore error %v, want one naming the %s", r.Err(), tc.want)
			}
		})
	}
}
