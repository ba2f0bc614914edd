package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"

	"bimodal/internal/engine"
	"bimodal/internal/sim"
	"bimodal/internal/telemetry"
)

// sweep is the server-side state of one submitted sweep: a batch of
// cells resolved against the content-addressed result store and — for
// the cells the store cannot answer — executed through the configured
// Dispatcher (in-process by default, cluster workers in coordinator
// mode). The event log grows monotonically and is never truncated, so an
// SSE subscriber that attaches late replays the full history before
// tailing live events — progress is a property of the sweep, not of who
// happened to be watching.
type sweep struct {
	id        string
	req       SweepRequest // canonical form
	reqJSON   []byte       // canonical request JSON (result assembly)
	sweepHash string       // sha256 of the canonical request JSON
	cells     []cellSpec
	hashes    []string // per-cell canonical spec hash, request order

	mu        sync.Mutex
	state     State
	errMsg    string
	done      int
	storeHits int
	result    []byte // merged sweep result JSON, assembled exactly once
	events    []Event
	update    chan struct{} // closed and replaced on every event append
}

func newSweep(id string, req SweepRequest, reqJSON []byte, sweepHash string, cells []cellSpec, hashes []string) *sweep {
	sw := &sweep{
		id:        id,
		req:       req,
		reqJSON:   reqJSON,
		sweepHash: sweepHash,
		cells:     cells,
		hashes:    hashes,
		state:     StateQueued,
		update:    make(chan struct{}),
	}
	sw.events = append(sw.events, Event{Type: "state", State: StateQueued, Total: len(cells)})
	return sw
}

// publishLocked appends an event and wakes subscribers. Callers hold sw.mu.
func (sw *sweep) publishLocked(e Event) {
	sw.events = append(sw.events, e)
	close(sw.update)
	sw.update = make(chan struct{})
}

// setState transitions the sweep and publishes a state event.
func (sw *sweep) setState(s State, errMsg string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.state = s
	sw.errMsg = errMsg
	sw.publishLocked(Event{Type: "state", State: s, Done: sw.done, Total: len(sw.cells), Error: errMsg})
}

// cellDone records one resolved cell; origin is "store", "run" or "warm".
func (sw *sweep) cellDone(label, origin string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.done++
	if origin == "store" {
		sw.storeHits++
	}
	sw.publishLocked(Event{Type: "cell", Cell: label, Done: sw.done, Total: len(sw.cells), Origin: origin})
}

// complete stores the merged result and transitions to completed.
func (sw *sweep) complete(result []byte) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.result = result
	sw.state = StateCompleted
	sw.publishLocked(Event{Type: "state", State: StateCompleted, Done: sw.done, Total: len(sw.cells)})
}

// status snapshots the sweep for the API envelope. The result bytes are
// copied so callers can never alias the sweep's internal buffer.
func (sw *sweep) status(detail bool) SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{
		ID:        sw.id,
		State:     sw.state,
		Error:     sw.errMsg,
		SweepHash: sw.sweepHash,
		Cells:     len(sw.cells),
		CellsDone: sw.done,
		StoreHits: sw.storeHits,
	}
	if detail {
		st.SpecHashes = append([]string(nil), sw.hashes...)
		if len(sw.result) > 0 {
			st.Result = append(json.RawMessage(nil), sw.result...)
		}
	}
	return st
}

// eventsSince returns a copy of the events from index i on, a channel
// that is closed when more events arrive, and whether the stream is over
// (terminal state reached and every event handed out).
func (sw *sweep) eventsSince(i int) (evs []Event, update <-chan struct{}, over bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if i < len(sw.events) {
		evs = append([]Event(nil), sw.events[i:]...)
	}
	return evs, sw.update, sw.state.Terminal() && i+len(evs) == len(sw.events)
}

// runSweep executes one sweep end to end and records its terminal state.
func (s *Server) runSweep(ctx context.Context, sw *sweep) {
	s.gInFlight.Add(1)
	defer s.gInFlight.Add(-1)
	sw.setState(StateRunning, "")
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	raw, err := s.executeSweep(ctx, sw)
	switch {
	case errors.Is(err, context.Canceled):
		s.mSweepCanceled.Inc()
		sw.setState(StateCanceled, err.Error())
	case err != nil:
		s.mSweepFailed.Inc()
		sw.setState(StateFailed, err.Error())
	default:
		s.mSweepCompleted.Inc()
		sw.complete(raw)
	}
}

// executeSweep resolves every cell — store first, dispatcher for the
// misses — and assembles the merged result from the per-cell bytes in
// request order. The assembly never re-marshals cell bytes, so the
// merged document is byte-identical whichever node (or the store)
// produced each cell.
func (s *Server) executeSweep(ctx context.Context, sw *sweep) ([]byte, error) {
	results := make([][]byte, len(sw.cells))
	var misses []int
	for i, h := range sw.hashes {
		blob, ok, err := s.store.Get(h)
		if err != nil {
			return nil, err
		}
		if ok {
			results[i] = blob
			s.mStoreHits.Inc()
			sw.cellDone(sw.cells[i].label(), "store")
			continue
		}
		s.mStoreMisses.Inc()
		misses = append(misses, i)
	}
	if len(misses) > 0 {
		// In-process misses that share a warmup prefix share one run; a
		// Dispatcher gets every miss on its own.
		var plan *warmPlan
		if s.cfg.Dispatcher == nil {
			var err error
			if plan, err = planWarm(sw.cells, misses); err != nil {
				return nil, err
			}
			// engine.Map returns once every cell has, so no run replays a
			// recording by then.
			defer plan.release()
		}
		// A group's run marshals each member's result into its slot.
		each := func(k int, res sim.RunResult) (err error) {
			i := misses[k]
			results[i], err = marshalCell(sw.cells[i].rs.Scheme, res)
			return err
		}
		_, err := engine.Map(ctx, engine.Workers(s.cfg.SweepFanout), len(misses),
			func(ctx context.Context, k int) (struct{}, error) {
				i := misses[k]
				start := telemetry.Now()
				// The cell runs in its warm-prefix group of plan, or on the
				// configured dispatcher.
				origin, err := "run", error(nil)
				if plan != nil {
					origin, err = plan.run(ctx, k, &s.shareStats, each)
				} else {
					results[i], err = s.cfg.Dispatcher.RunCell(ctx, sw.cells[i].rs, sw.hashes[i])
				}
				if err != nil {
					return struct{}{}, err
				}
				s.hCellSeconds.Observe(telemetry.Since(start).Seconds())
				if err := s.store.Put(sw.hashes[i], results[i]); err != nil {
					return struct{}{}, err
				}
				sw.cellDone(sw.cells[i].label(), origin)
				return struct{}{}, nil
			})
		// Once per sweep, not per Put: a disk store's Len walks every
		// shard.
		s.storeGrew()
		if err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	buf.Grow(len(sw.reqJSON) + 64*len(results))
	buf.WriteString(`{"request":`)
	buf.Write(sw.reqJSON)
	buf.WriteString(`,"cells":[`)
	for i, r := range results {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(r)
	}
	buf.WriteString(`]}`)
	return buf.Bytes(), nil
}

// storeGrew refreshes the store-entries gauge after a sweep's puts.
func (s *Server) storeGrew() {
	if n, err := s.store.Len(); err == nil {
		s.gStoreEntries.Set(int64(n))
	}
}
