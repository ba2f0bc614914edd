package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bimodal/internal/spec"
	"bimodal/internal/telemetry"
)

// fakeClock is a mutex-guarded manual clock for deterministic reaper
// tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestCoordinator builds a coordinator on a private registry and fake
// clock; the background reaper is effectively disabled (huge ReapEvery)
// so tests drive reapOnce by hand.
func newTestCoordinator(t *testing.T, cfg Config) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg.Now = clk.now
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.ReapEvery <= 0 {
		cfg.ReapEvery = time.Hour
	}
	c := New(cfg)
	t.Cleanup(c.Close)
	return c, clk
}

func testSpec(seed uint64) spec.RunSpec {
	return spec.RunSpec{Scheme: "alloy", Mix: "Q1", Seed: seed,
		Options: spec.Options{AccessesPerCore: 100, CacheDivisor: 64}}
}

// dispatch starts RunCell in the background and returns the result
// channel.
func dispatch(ctx context.Context, c *Coordinator, seed uint64) chan taskResult {
	out := make(chan taskResult, 1)
	rs := testSpec(seed)
	hash := fmt.Sprintf("sha256:%064d", seed)
	go func() {
		blob, err := c.RunCell(ctx, rs, hash)
		out <- taskResult{blob: blob, err: err}
	}()
	return out
}

// pull synchronously asks the coordinator for one task.
func pull(t *testing.T, c *Coordinator, worker string) *Task {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	task, err := c.Pull(ctx, worker)
	if err != nil || task == nil {
		t.Fatalf("pull(%s) = %v, %v; want a task", worker, task, err)
	}
	return task
}

func TestCoordinatorRoundTrip(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	w1, _, err := c.Join("alpha")
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	res := dispatch(ctx, c, 1)
	task := pull(t, c, w1)
	if task.Spec.Seed != 1 || !strings.HasPrefix(task.Hash, "sha256:") {
		t.Fatalf("pulled task %+v", task)
	}
	c.Report(w1, task.ID, []byte(`{"ok":1}`), nil)
	r := <-res
	if r.err != nil || string(r.blob) != `{"ok":1}` {
		t.Fatalf("RunCell = %q, %v", r.blob, r.err)
	}

	// Duplicate report after completion is idempotent and counted.
	c.Report(w1, task.ID, []byte(`{"ok":2}`), nil)
	if got := c.mLateReports.Value(); got != 1 {
		t.Errorf("late reports = %d, want 1", got)
	}
	if got := c.mCompleted.Value(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}

// TestCoordinatorOrphans keeps cells submitted before any worker exists
// pending until the first worker joins and pulls.
func TestCoordinatorOrphans(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	res := dispatch(context.Background(), c, 7)
	waitPending(t, c, 1)
	w1, _, err := c.Join("late")
	if err != nil {
		t.Fatal(err)
	}
	task := pull(t, c, w1)
	c.Report(w1, task.ID, []byte(`{}`), nil)
	if r := <-res; r.err != nil {
		t.Fatal(r.err)
	}
}

// TestCoordinatorSteal: cells queued while one worker is registered but
// not pulling belong to no worker; one that joins later pulls them all,
// oldest first.
func TestCoordinatorSteal(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	if _, _, err := c.Join("busy"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var results []chan taskResult
	for seed := uint64(1); seed <= 4; seed++ {
		results = append(results, dispatch(ctx, c, seed))
		waitPending(t, c, int(seed)) // fixes the arrival order
	}

	w2, _, _ := c.Join("late")
	for seed := uint64(1); seed <= 4; seed++ {
		task := pull(t, c, w2)
		if task.Spec.Seed != seed {
			t.Fatalf("pull %d got seed %d, want the oldest pending cell (seed %d)", seed, task.Spec.Seed, seed)
		}
		c.Report(w2, task.ID, []byte(`{}`), nil)
	}
	for _, res := range results {
		if r := <-res; r.err != nil {
			t.Fatal(r.err)
		}
	}
	if got := c.mDispatched.Value(); got != 4 {
		t.Errorf("dispatched = %d, want 4", got)
	}
}

// TestCoordinatorReapRequeue kills a worker holding an in-flight cell by
// silencing its heartbeat past the TTL; the survivor must complete it,
// and the requeue must be visible in telemetry.
func TestCoordinatorReapRequeue(t *testing.T) {
	c, clk := newTestCoordinator(t, Config{TTL: 10 * time.Second})
	w1, ttl, _ := c.Join("doomed")
	if ttl != 10*time.Second {
		t.Fatalf("ttl = %v", ttl)
	}
	res := dispatch(context.Background(), c, 3)
	task := pull(t, c, w1)

	clk.advance(5 * time.Second)
	w2, _, _ := c.Join("survivor")
	c.reapOnce() // w1 five seconds silent: still alive
	if err := c.Heartbeat(w1); err != nil {
		t.Fatalf("live worker reaped early: %v", err)
	}

	clk.advance(11 * time.Second)
	c.Heartbeat(w2)
	c.reapOnce()
	if err := c.Heartbeat(w1); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("dead worker heartbeat err = %v, want ErrUnknownWorker", err)
	}
	if got := c.mDead.Value(); got != 1 {
		t.Errorf("dead workers = %d, want 1", got)
	}
	if got := c.mRequeued.Value(); got != 1 {
		t.Errorf("requeued = %d, want 1", got)
	}

	// The dead worker's report arrives late and is dropped; the survivor's
	// completes the cell.
	task2 := pull(t, c, w2)
	if task2.Hash != task.Hash {
		t.Fatalf("survivor pulled %s, want requeued %s", task2.Hash, task.Hash)
	}
	c.Report(w1, task.ID, []byte(`{"stale":true}`), nil)
	select {
	case r := <-res:
		t.Fatalf("late report from dead worker completed the cell: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	c.Report(w2, task2.ID, []byte(`{"fresh":true}`), nil)
	if r := <-res; r.err != nil || string(r.blob) != `{"fresh":true}` {
		t.Fatalf("RunCell = %q, %v", r.blob, r.err)
	}
	if got := c.mLateReports.Value(); got != 1 {
		t.Errorf("late reports = %d, want 1", got)
	}
}

// TestCoordinatorRequeueFirst puts a reaped worker's in-flight cell back
// at the head of the queue: the survivor pulls it before a cell that was
// queued after it was handed out.
func TestCoordinatorRequeueFirst(t *testing.T) {
	c, clk := newTestCoordinator(t, Config{TTL: 10 * time.Second})
	w1, _, _ := c.Join("doomed")
	ctx := context.Background()
	first := dispatch(ctx, c, 1)
	task := pull(t, c, w1)
	second := dispatch(ctx, c, 2)
	waitPending(t, c, 1)

	clk.advance(11 * time.Second)
	w2, _, _ := c.Join("survivor")
	c.reapOnce()
	waitPending(t, c, 2)
	if got := c.mPending.Value(); got != 2 {
		t.Errorf("pending gauge = %d, want 2", got)
	}

	for _, want := range []uint64{1, 2} {
		got := pull(t, c, w2)
		if got.Spec.Seed != want {
			t.Fatalf("survivor pulled seed %d, want %d (requeued %s first)", got.Spec.Seed, want, task.Hash)
		}
		c.Report(w2, got.ID, []byte(`{}`), nil)
	}
	for _, res := range []chan taskResult{first, second} {
		if r := <-res; r.err != nil {
			t.Fatal(r.err)
		}
	}
}

// TestCoordinatorMaxAttempts fails a cell after it has been handed to
// MaxAttempts workers that all died running it.
func TestCoordinatorMaxAttempts(t *testing.T) {
	c, clk := newTestCoordinator(t, Config{TTL: time.Second, MaxAttempts: 2})
	res := dispatch(context.Background(), c, 9)
	for i := 0; i < 2; i++ {
		w, _, _ := c.Join(fmt.Sprintf("victim-%d", i))
		pull(t, c, w)
		clk.advance(2 * time.Second)
		c.reapOnce()
	}
	r := <-res
	if r.err == nil || !strings.Contains(r.err.Error(), "failed on 2 workers") {
		t.Fatalf("RunCell err = %v, want attempt-budget failure", r.err)
	}
	if got := c.mFailed.Value(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
}

// TestCoordinatorLeaveRequeues returns a leaving worker's cells to the
// pool without burning attempts.
func TestCoordinatorLeaveRequeues(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{MaxAttempts: 1})
	w1, _, _ := c.Join("transient")
	res := dispatch(context.Background(), c, 5)
	task := pull(t, c, w1)
	if err := c.Leave(w1); err != nil {
		t.Fatal(err)
	}
	// MaxAttempts is 1 and the first attempt is already burned; only a
	// leave (not a reap) lets the cell run again.
	w2, _, _ := c.Join("replacement")
	task2 := pull(t, c, w2)
	if task2.Hash != task.Hash {
		t.Fatalf("replacement pulled %s, want %s", task2.Hash, task.Hash)
	}
	c.Report(w2, task2.ID, []byte(`{}`), nil)
	if r := <-res; r.err != nil {
		t.Fatal(r.err)
	}
	if got := c.mRequeued.Value(); got != 1 {
		t.Errorf("requeued = %d, want 1", got)
	}
}

// TestCoordinatorLeaveKeepsAttempts: a clean leave burns no attempt, so
// with a budget of two a cell survives one leave and one death.
func TestCoordinatorLeaveKeepsAttempts(t *testing.T) {
	c, clk := newTestCoordinator(t, Config{TTL: time.Second, MaxAttempts: 2})
	res := dispatch(context.Background(), c, 9)
	w1, _, _ := c.Join("leaver")
	pull(t, c, w1)
	if err := c.Leave(w1); err != nil {
		t.Fatal(err)
	}
	w2, _, _ := c.Join("victim")
	pull(t, c, w2)
	clk.advance(2 * time.Second)
	w3, _, _ := c.Join("survivor")
	c.reapOnce()
	task := pull(t, c, w3)
	c.Report(w3, task.ID, []byte(`{}`), nil)
	if r := <-res; r.err != nil {
		t.Fatalf("RunCell err = %v after one leave and one death, want success", r.err)
	}
	if got := c.mFailed.Value(); got != 0 {
		t.Errorf("failed = %d, want 0", got)
	}
}

// TestCoordinatorCancelWithdraws removes an abandoned pending cell so no
// worker ever runs it.
func TestCoordinatorCancelWithdraws(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	w1, _, _ := c.Join("w")
	ctx, cancel := context.WithCancel(context.Background())
	res := dispatch(ctx, c, 11)
	waitPending(t, c, 1)
	cancel()
	if r := <-res; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("RunCell err = %v, want context.Canceled", r.err)
	}
	waitPending(t, c, 0)
	pctx, pcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer pcancel()
	if task, err := c.Pull(pctx, w1); task != nil ||
		(err != nil && !errors.Is(err, context.DeadlineExceeded)) {
		t.Fatalf("pull after withdrawal = %v, %v; want empty", task, err)
	}
}

// TestCoordinatorLongPollHandoff parks a pull first and feeds it a cell
// enqueued afterwards.
func TestCoordinatorLongPollHandoff(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{PollWait: 5 * time.Second})
	w1, _, _ := c.Join("parked")
	type pulled struct {
		task *Task
		err  error
	}
	got := make(chan pulled, 1)
	go func() {
		task, err := c.Pull(context.Background(), w1)
		got <- pulled{task, err}
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.waiters) == 1 && c.waiters[0].w.id == w1
	})
	res := dispatch(context.Background(), c, 13)
	p := <-got
	if p.err != nil || p.task == nil {
		t.Fatalf("parked pull = %v, %v", p.task, p.err)
	}
	c.Report(w1, p.task.ID, []byte(`{}`), nil)
	if r := <-res; r.err != nil {
		t.Fatal(r.err)
	}
}

// TestCoordinatorRejectsStaleReport models a restart with two
// coordinators that each join a worker and hand it their first cell, so
// both cells carry the same task ID. Worker IDs are unique to their
// coordinator: a report that names A's worker and B's task completes
// nothing on B and counts as late.
func TestCoordinatorRejectsStaleReport(t *testing.T) {
	a, _ := newTestCoordinator(t, Config{})
	b, _ := newTestCoordinator(t, Config{})
	ctx := context.Background()
	wa, _, _ := a.Join("w")
	wb, _, _ := b.Join("w")
	if wa == wb {
		t.Fatalf("both coordinators issued worker ID %s", wa)
	}
	dispatch(ctx, a, 1)
	res := dispatch(ctx, b, 2)
	ta, tb := pull(t, a, wa), pull(t, b, wb)
	if ta.ID != tb.ID {
		t.Fatalf("task IDs %s and %s differ; the fixture needs a collision", ta.ID, tb.ID)
	}

	b.Report(wa, tb.ID, []byte(`{"stale":true}`), nil)
	b.mu.Lock()
	task := b.tasks[tb.ID]
	b.mu.Unlock()
	if task == nil || task.owner != wb {
		t.Fatalf("after the stale report B's task is %+v, want still running on %s", task, wb)
	}
	if got := b.mLateReports.Value(); got != 1 {
		t.Errorf("late reports = %d, want 1", got)
	}
	if got := b.mCompleted.Value(); got != 0 {
		t.Errorf("completed = %d, want 0", got)
	}

	b.Report(wb, tb.ID, []byte(`{}`), nil)
	if r := <-res; r.err != nil || string(r.blob) != `{}` {
		t.Errorf("B's cell = %s, %v; want its own worker's {}", r.blob, r.err)
	}
}

// waitPending waits until exactly n cells are pending.
func waitPending(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	waitFor(t, func() bool {
		_, pending := c.Workers()
		return pending == n
	})
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
