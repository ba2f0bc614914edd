package service

import (
	"context"
	"sync"

	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/store"
	"bimodal/internal/telemetry"
	"bimodal/internal/workloads"
)

// WarmRunner executes run-spec cells through the warm-state checkpoint
// subsystem (internal/snapshot, DESIGN.md section 14): cells sharing a
// warmup prefix hash run the warmup window exactly once, seal the
// simulator state into a snapshot blob, and fork restored engines for
// their measured windows. Blobs live in the content-addressed store under
// the prefix hash — domain-separated from result hashes — so a shared
// store lets cluster workers skip warmup phases their peers already ran.
//
// Cells that no other cell could restore from — ANTT, warmup disabled, or
// a MeasuredCoupled scheme such as bimodal — run straight through the
// cold path and seal nothing.
//
// Restore-then-measure is byte-identical to a straight-through run (the
// golden tests in internal/sim prove it per scheme), so a WarmRunner can
// never change result bytes — only how often warmup executes. Any warmup,
// snapshot or restore failure falls back to the cold path.
type WarmRunner struct {
	store  store.Store
	hits   *telemetry.Counter
	misses *telemetry.Counter
	bytes  *telemetry.Counter

	mu    sync.Mutex
	calls map[string]*warmCall // in-flight warmups by prefix hash
}

// warmCall is one in-flight warmup: concurrent cells with the same
// prefix wait on done and restore from blob instead of warming again.
type warmCall struct {
	done chan struct{}
	blob []byte
	err  error
}

// NewWarmRunner builds a warm runner over the given snapshot store,
// registering the snapshot_hits/misses/bytes counters with reg (nil
// selects telemetry.Default).
func NewWarmRunner(st store.Store, reg *telemetry.Registry) *WarmRunner {
	if reg == nil {
		reg = telemetry.Default
	}
	return &WarmRunner{
		store:  st,
		hits:   reg.Counter("bimodal_snapshot_hits_total"),
		misses: reg.Counter("bimodal_snapshot_misses_total"),
		bytes:  reg.Counter("bimodal_snapshot_bytes_total"),
		calls:  map[string]*warmCall{},
	}
}

// NewWarmCellRunner adapts a WarmRunner to the cluster worker's Run seam:
// cells restore from warm snapshots in st (shared across the cluster)
// when a peer already produced one for their prefix.
func NewWarmCellRunner(st store.Store, reg *telemetry.Registry) func(ctx context.Context, rs spec.RunSpec) ([]byte, error) {
	w := NewWarmRunner(st, reg)
	return func(ctx context.Context, rs spec.RunSpec) ([]byte, error) {
		raw, _, err := w.RunCell(ctx, rs)
		return raw, err
	}
}

// RunCell executes one canonical run spec and returns its compact
// CellResult JSON — byte-identical to RunCellSpec. warm reports whether a
// restored snapshot replaced the warmup phase (the sweep event origin
// distinguishes "warm" from "run").
//
// Every cell with a shared prefix that completes counts exactly one
// snapshot hit (a restore replaced its warmup) or one miss (it warmed up
// itself: as the producer, or cold after a failed restore or producer).
// Cells without a shared prefix count neither.
func (w *WarmRunner) RunCell(ctx context.Context, rs spec.RunSpec) (raw []byte, warm bool, err error) {
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		return nil, false, err
	}
	return w.run(ctx, cellSpec{mix: mix, rs: rs})
}

// run is RunCell on a cell whose mix is already resolved, as every cell
// of a validated sweep is.
func (w *WarmRunner) run(ctx context.Context, c cellSpec) (raw []byte, warm bool, err error) {
	prefix, ok, err := sharedPrefix(c.rs)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		raw, err = c.runJSON(ctx)
		return raw, false, err
	}

	if blob, found, gerr := w.store.Get(prefix); gerr == nil && found {
		return w.restoreOrRun(ctx, c, blob, prefix)
	}

	w.mu.Lock()
	if call, inflight := w.calls[prefix]; inflight {
		w.mu.Unlock()
		select {
		case <-call.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if call.err != nil {
			// The producer's warmup failed: this cell warms up itself.
			w.misses.Inc()
			raw, err = c.runJSON(ctx)
			return raw, false, err
		}
		return w.restoreOrRun(ctx, c, call.blob, prefix)
	}
	call := &warmCall{done: make(chan struct{})}
	w.calls[prefix] = call
	w.mu.Unlock()

	// This cell is the prefix's producer: warm its own simulation, seal
	// the snapshot for the others, then measure on the already-warm state.
	w.misses.Inc()
	s, err := sim.ForSpec(runPool, c.rs, c.mix, 1)
	if err == nil {
		err = s.Warmup(ctx)
	}
	if err == nil {
		call.blob = s.Snapshot(prefix)
		w.bytes.Add(int64(len(call.blob)))
		// Best-effort publication; waiters use call.blob directly.
		_ = w.store.Put(prefix, call.blob)
	}
	call.err = err
	w.mu.Lock()
	delete(w.calls, prefix)
	w.mu.Unlock()
	close(call.done)
	if err != nil {
		return nil, false, err
	}
	raw, err = measureJSON(ctx, c, s)
	return raw, false, err
}

// sharedPrefix returns the warmup prefix hash under which rs may share a
// warm snapshot with other cells. ok is false when no other cell could
// restore it: the spec has no prefix at all (ANTT, warmup disabled), or
// its scheme is MeasuredCoupled, whose prefix covers the whole canonical
// spec, so the only cell that could restore the blob is an identical one
// the result store already answers.
func sharedPrefix(rs spec.RunSpec) (prefix string, ok bool, err error) {
	d, err := spec.Lookup(rs.Scheme)
	if err != nil {
		return "", false, err
	}
	if d.MeasuredCoupled {
		return "", false, nil
	}
	return rs.PrefixHash()
}

// restoreOrRun measures the cell on a simulation restored from blob,
// counting a snapshot hit. A corrupt or incongruent blob must not fail the
// cell: it counts a miss and the cell runs cold instead.
func (w *WarmRunner) restoreOrRun(ctx context.Context, c cellSpec, blob []byte, prefix string) ([]byte, bool, error) {
	raw, err := measureRestored(ctx, c, blob, prefix)
	if err == nil {
		w.hits.Inc()
		return raw, true, nil
	}
	if ctx.Err() != nil {
		return nil, false, err
	}
	w.misses.Inc()
	raw, err = c.runJSON(ctx)
	return raw, false, err
}

// measureRestored overwrites a congruent simulation's state from the
// snapshot blob and runs the measured window. A pooled simulator is always
// fully reset (or fresh), so restoring over it is exactly NewSim+Restore.
// A failed Restore leaves partial state: that simulator is discarded,
// never Put back.
func measureRestored(ctx context.Context, c cellSpec, blob []byte, prefix string) ([]byte, error) {
	s, err := sim.ForSpec(runPool, c.rs, c.mix, 1)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(blob, prefix); err != nil {
		return nil, err
	}
	return measureJSON(ctx, c, s)
}

// measureJSON runs the measured window of the cell's warm simulation and
// marshals its result, returning the simulator to the pool once the bytes
// are sealed: after Put a concurrent Reset may scribble over the scheme
// the result aliases.
func measureJSON(ctx context.Context, c cellSpec, s *sim.Sim) ([]byte, error) {
	res, err := s.Measure(ctx)
	if err != nil {
		return nil, err
	}
	raw, err := marshalResultJSON(NewCellResult(c.rs.Scheme, res))
	if err == nil {
		runPool.Put(s)
	}
	return raw, err
}
