package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"bimodal/internal/service"
	"bimodal/internal/spec"
	"bimodal/internal/telemetry"
)

// Worker is a thin pull loop around the simulator: it joins a
// coordinator, long-polls for cells, runs each one through
// service.RunCellSpec (marshaling the result exactly once — those bytes
// travel unmodified into the merged sweep), and reports back. A worker
// holds no sweep state and no store; killing one loses nothing but the
// cells it was running, which the coordinator requeues after the liveness
// TTL.
type Worker struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// Name labels the worker in introspection output (optional).
	Name string
	// Slots is the number of concurrent pull loops (parallel cells).
	// 0 selects GOMAXPROCS.
	Slots int
	// Run executes one cell — a test seam. Nil selects
	// service.RunCellSpec.
	Run func(ctx context.Context, rs spec.RunSpec) ([]byte, error)
	// Metrics receives worker instrumentation. Nil selects
	// telemetry.Default.
	Metrics *telemetry.Registry
	// Client is the HTTP client for coordinator calls. Nil selects a
	// client with no global timeout (pulls are long-polls).
	Client *http.Client

	// noLeave is a test seam: skip the clean deregistration on shutdown,
	// simulating a crash so the coordinator's liveness reaper (not the
	// leave path) must recover the worker's in-flight cells.
	noLeave bool
}

// Serve joins the coordinator and processes cells until ctx ends. If the
// coordinator declares the worker dead (HTTP 410 worker_gone — e.g. after
// a long GC pause or network partition outlived the TTL, or because the
// coordinator restarted and never issued its ID) the worker rejoins under
// a fresh ID and keeps serving; cells it reported late in between are
// dropped idempotently by the coordinator. A pull or report that fails
// any other way is retried with capped backoff, so a coordinator that is
// down for a while loses no worker. The error is always non-nil:
// ctx.Err() on clean shutdown, or the join failure that stopped the
// worker.
func (w *Worker) Serve(ctx context.Context) error {
	hc := w.Client
	if hc == nil {
		hc = &http.Client{}
	}
	slots := w.Slots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	metrics := w.Metrics
	if metrics == nil {
		metrics = telemetry.Default
	}
	run := w.Run
	if run == nil {
		run = service.RunCellSpec
	}
	s := &workerSession{
		base:    w.Coordinator,
		name:    w.Name,
		hc:      hc,
		run:     run,
		noLeave: w.noLeave,
		mCells:  metrics.Counter("bimodal_worker_cells_total"),
		mRejoin: metrics.Counter("bimodal_worker_rejoins_total"),
	}
	for {
		if err := s.join(ctx); err != nil {
			return fmt.Errorf("cluster: joining %s: %w", w.Coordinator, err)
		}
		err := s.serveOnce(ctx, slots)
		if !errors.Is(err, ErrUnknownWorker) {
			return err
		}
		// Declared dead; rejoin under a fresh ID.
		s.mRejoin.Inc()
	}
}

// workerSession is one registration's worth of state.
type workerSession struct {
	base string
	name string
	hc   *http.Client
	run  func(ctx context.Context, rs spec.RunSpec) ([]byte, error)

	id      string
	ttl     time.Duration
	noLeave bool

	mCells  *telemetry.Counter
	mRejoin *telemetry.Counter
}

// join registers with the coordinator.
func (s *workerSession) join(ctx context.Context) error {
	var rep joinReply
	if err := s.call(ctx, http.MethodPost, "/cluster/v1/workers",
		joinRequest{Name: s.name}, &rep); err != nil {
		return err
	}
	s.id = rep.ID
	s.ttl = time.Duration(rep.TTLMillis) * time.Millisecond
	return nil
}

// serveOnce runs the pull loops plus the heartbeat ticker until ctx ends
// or any loop sees worker_gone.
func (s *workerSession) serveOnce(ctx context.Context, slots int) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		every := s.ttl / 3
		if every <= 0 {
			every = time.Second
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if err := s.call(ctx, http.MethodPost,
					"/cluster/v1/workers/"+s.id+"/heartbeat", nil, nil); errors.Is(err, ErrUnknownWorker) {
					cancel(ErrUnknownWorker)
					return
				}
			}
		}
	}()

	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.pullLoop(ctx); err != nil {
				cancel(err)
			}
		}()
	}
	wg.Wait()

	// A clean shutdown deregisters so the coordinator requeues immediately
	// instead of waiting out the TTL. Best-effort: the reaper covers us.
	if cause := context.Cause(ctx); !errors.Is(cause, ErrUnknownWorker) {
		if !s.noLeave {
			dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = s.call(dctx, http.MethodDelete, "/cluster/v1/workers/"+s.id, nil, nil)
			dcancel()
		}
		return cause
	}
	return ErrUnknownWorker
}

// Retry pacing for a pull or report that fails for any reason but 410
// worker_gone: the delay doubles from retryMin up to retryMax. A worker
// thereby rides out a coordinator restart, and rejoins once the new
// process answers 410 for an ID it never issued.
const (
	retryMin = 50 * time.Millisecond
	retryMax = 2 * time.Second
)

// pullLoop pulls, runs and reports cells until ctx ends or the
// coordinator answers 410.
func (s *workerSession) pullLoop(ctx context.Context) error {
	for {
		var t Task
		var found bool
		if err := retry(ctx, func() (err error) {
			found, err = s.pull(ctx, &t)
			return err
		}); err != nil {
			return err
		}
		if !found {
			continue // empty long-poll window
		}
		s.mCells.Inc()
		blob, runErr := s.run(ctx, t.Spec)
		if ctx.Err() != nil {
			// Killed mid-cell: do not report; the coordinator requeues.
			return context.Cause(ctx)
		}
		rep := resultReport{WorkerID: s.id}
		if runErr != nil {
			rep.Error = runErr.Error()
		} else {
			rep.Blob = blob
		}
		if err := retry(ctx, func() error {
			return s.call(ctx, http.MethodPost, "/cluster/v1/tasks/"+t.ID+"/result", rep, nil)
		}); err != nil {
			return err
		}
	}
}

// retry calls op until it succeeds or fails with ErrUnknownWorker,
// sleeping between attempts, and returns op's last error. It returns the
// cause instead once ctx ends.
func retry(ctx context.Context, op func() error) error {
	for delay := retryMin; ; delay = min(2*delay, retryMax) {
		err := op()
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if err == nil || errors.Is(err, ErrUnknownWorker) {
			return err
		}
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(delay):
		}
	}
}

// pull long-polls for one task; found is false on an empty 204 window.
func (s *workerSession) pull(ctx context.Context, t *Task) (found bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		s.base+"/cluster/v1/workers/"+s.id+"/pull", nil)
	if err != nil {
		return false, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, json.NewDecoder(resp.Body).Decode(t)
	case http.StatusNoContent:
		return false, nil
	case http.StatusGone:
		return false, ErrUnknownWorker
	default:
		return false, apiError(resp)
	}
}

// call issues one JSON request/reply exchange against the coordinator.
func (s *workerSession) call(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		return ErrUnknownWorker
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError decodes a non-2xx coordinator reply through the shared
// envelope decoder, so worker-side failures carry the same typed codes as
// public API failures.
func apiError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	return service.DecodeAPIError(resp.StatusCode, resp.Header.Get("Retry-After"),
		bytes.TrimSpace(msg))
}
