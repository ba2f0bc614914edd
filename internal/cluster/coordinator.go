// Package cluster distributes sweep cells across worker processes.
//
// A Coordinator embeds in the sweep server (it implements
// service.Dispatcher, so the sweep executor hands it every cell the
// content-addressed store cannot answer) and keeps those cells in one
// FIFO queue that every registered worker pulls from. Workers are thin
// pull loops around service.RunCellSpec: join, long-poll for tasks, run,
// report bytes. Because result bytes are a pure function of the canonical
// RunSpec (the determinism contract the simulator packages enforce), which
// worker runs a cell is a performance decision only — a sweep merged from
// three workers is byte-identical to the same sweep run on one node, and
// the goldens prove it.
//
// There is no placement: the sweep executor answers every stored hash
// before it dispatches, so a spec hash reaches the coordinator once, and
// the only state a worker keeps for later cells, its pooled simulators, is
// keyed by something other than the spec hash. The oldest pending cell
// goes to whichever worker asks first.
package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"bimodal/internal/spec"
	"bimodal/internal/telemetry"
)

// Config tunes a Coordinator. The zero value is usable; every field has a
// production default.
type Config struct {
	// TTL is the worker liveness window: a worker that neither heartbeats
	// nor pulls for this long is declared dead and its cells are requeued.
	// Default 15s.
	TTL time.Duration
	// ReapEvery is the liveness sweep interval. Default TTL/3.
	ReapEvery time.Duration
	// PollWait bounds how long an idle pull request is held open before
	// the coordinator answers 204 (long-poll). Default 10s.
	PollWait time.Duration
	// MaxAttempts caps how many workers may die running a cell before the
	// coordinator gives up and fails it (each requeue after a worker death
	// burns one attempt; a clean leave burns none). Default 3.
	MaxAttempts int
	// Metrics receives the coordinator's instrumentation.
	// Default telemetry.Default.
	Metrics *telemetry.Registry
	// Now is the clock (a test seam for deterministic reaper tests).
	// Default time.Now. The cluster layer is outside the simulator's
	// determinism boundary — scheduling never affects result bytes.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.TTL <= 0 {
		c.TTL = 15 * time.Second
	}
	if c.ReapEvery <= 0 {
		c.ReapEvery = c.TTL / 3
	}
	if c.PollWait <= 0 {
		c.PollWait = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.Default
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// taskResult is what a worker reported back for one cell.
type taskResult struct {
	blob []byte
	err  error
}

// task is one cell in flight through the cluster.
type task struct {
	id   string
	rs   spec.RunSpec
	hash string
	// owner is the worker running the task; a pending task has none.
	owner string
	// attempts counts workers that died running the task.
	attempts int
	// result receives exactly one send (buffered so a report never blocks
	// on a caller that already gave up).
	result chan taskResult
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id       string
	name     string
	running  []*task // pulled, awaiting report, in hand-out order
	lastSeen time.Time
}

// waiter is a parked pull request. It records its worker so that dropping
// the worker can release it.
type waiter struct {
	w  *workerState
	ch chan *task
}

// Coordinator hands sweep cells to registered workers from one FIFO queue.
// It implements service.Dispatcher, so a service.Server configured with one
// transparently fans cells out to the fleet; with no workers joined, cells
// wait in the queue until one pulls. Create with New, release with Close.
type Coordinator struct {
	cfg Config
	// tag is drawn once per coordinator from the global math/rand/v2
	// source, which every process seeds randomly, and carried by every
	// worker ID it issues. An ID from another coordinator process (before
	// a restart, say) is then unknown here: its calls get 410 and its
	// reports are dropped as late instead of completing another cell.
	tag string

	mu      sync.Mutex
	workers map[string]*workerState
	tasks   map[string]*task // pending + running, by task ID
	pending []*task          // cells no worker holds, oldest first
	waiters []waiter         // parked pulls, longest-parked first
	seq     int              // task ID source
	wseq    int              // worker ID source
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup

	mWorkers     *telemetry.Gauge
	mPending     *telemetry.Gauge
	mJoined      *telemetry.Counter
	mDead        *telemetry.Counter
	mDispatched  *telemetry.Counter
	mCompleted   *telemetry.Counter
	mRequeued    *telemetry.Counter
	mFailed      *telemetry.Counter
	mLateReports *telemetry.Counter
}

// New builds a Coordinator and starts its liveness reaper.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		tag:     fmt.Sprintf("%08x", rand.Uint32()),
		workers: map[string]*workerState{},
		tasks:   map[string]*task{},
		stop:    make(chan struct{}),

		mWorkers:     cfg.Metrics.Gauge("bimodal_cluster_workers"),
		mPending:     cfg.Metrics.Gauge("bimodal_cluster_cells_pending"),
		mJoined:      cfg.Metrics.Counter("bimodal_cluster_workers_joined_total"),
		mDead:        cfg.Metrics.Counter("bimodal_cluster_workers_dead_total"),
		mDispatched:  cfg.Metrics.Counter("bimodal_cluster_cells_dispatched_total"),
		mCompleted:   cfg.Metrics.Counter("bimodal_cluster_cells_completed_total"),
		mRequeued:    cfg.Metrics.Counter("bimodal_cluster_cells_requeued_total"),
		mFailed:      cfg.Metrics.Counter("bimodal_cluster_cells_failed_total"),
		mLateReports: cfg.Metrics.Counter("bimodal_cluster_late_reports_total"),
	}
	c.wg.Add(1)
	go c.reapLoop()
	return c
}

// Close stops the reaper and fails every outstanding cell. Parked pull
// requests are released empty-handed.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	for _, t := range c.tasks {
		t.result <- taskResult{err: fmt.Errorf("cluster: coordinator closed")}
	}
	c.tasks = map[string]*task{}
	c.pending = nil
	c.mPending.Set(0)
	for _, w := range c.workers {
		w.running = nil
	}
	for _, p := range c.waiters {
		close(p.ch)
	}
	c.waiters = nil
	c.mu.Unlock()
	c.wg.Wait()
}

// RunCell implements service.Dispatcher: it appends the cell to the
// pending queue and blocks until a worker reports the result bytes, the
// cell exhausts its attempts, or ctx ends. The returned bytes are exactly
// what the executing worker marshaled — the coordinator never re-encodes
// them, which is what keeps merged sweeps byte-identical whichever worker
// ran each cell.
func (c *Coordinator) RunCell(ctx context.Context, rs spec.RunSpec, hash string) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: coordinator closed")
	}
	c.seq++
	t := &task{
		id:     fmt.Sprintf("task-%06d", c.seq),
		rs:     rs,
		hash:   hash,
		result: make(chan taskResult, 1),
	}
	c.tasks[t.id] = t
	c.pending = append(c.pending, t)
	c.wakeLocked()
	c.mu.Unlock()

	select {
	case r := <-t.result:
		return r.blob, r.err
	case <-ctx.Done():
		c.abandon(t)
		return nil, ctx.Err()
	}
}

// abandon withdraws a task whose caller gave up. A pending task leaves
// the queue; a running task stays with its worker, whose eventual report
// is dropped as late.
func (c *Coordinator) abandon(t *task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, live := c.tasks[t.id]; !live {
		return
	}
	delete(c.tasks, t.id)
	if t.owner == "" {
		c.pending = removeTask(c.pending, t)
		c.mPending.Set(int64(len(c.pending)))
		return
	}
	if w := c.workers[t.owner]; w != nil {
		w.running = removeTask(w.running, t)
	}
}

// wakeLocked hands pending cells to parked pulls, the oldest cell to the
// longest-parked pull, until one side runs out.
func (c *Coordinator) wakeLocked() {
	for len(c.pending) > 0 && len(c.waiters) > 0 {
		p := c.waiters[0]
		c.waiters = c.waiters[1:]
		p.ch <- c.takeLocked(p.w)
	}
	c.mPending.Set(int64(len(c.pending)))
}

// takeLocked moves the oldest pending cell into w's running set and
// returns it.
func (c *Coordinator) takeLocked(w *workerState) *task {
	t := c.pending[0]
	c.pending = c.pending[1:]
	t.owner = w.id
	w.running = append(w.running, t)
	w.lastSeen = c.cfg.Now()
	c.mDispatched.Inc()
	c.mPending.Set(int64(len(c.pending)))
	return t
}

// Join registers a worker and returns its ID (worker-<tag>-<n>, unique to
// this coordinator) plus the liveness window it must heartbeat within.
func (c *Coordinator) Join(name string) (id string, ttl time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", 0, fmt.Errorf("cluster: coordinator closed")
	}
	c.wseq++
	id = fmt.Sprintf("worker-%s-%04d", c.tag, c.wseq)
	c.workers[id] = &workerState{id: id, name: name, lastSeen: c.cfg.Now()}
	c.mJoined.Inc()
	c.mWorkers.Set(int64(len(c.workers)))
	return id, c.cfg.TTL, nil
}

// Heartbeat refreshes a worker's liveness. ErrUnknownWorker tells a
// reaped worker to rejoin under a fresh ID.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return ErrUnknownWorker
	}
	w.lastSeen = c.cfg.Now()
	return nil
}

// ErrUnknownWorker marks calls naming a worker the coordinator does not
// know — never joined, left, or declared dead. The HTTP layer maps it to
// 410 worker_gone.
var ErrUnknownWorker = fmt.Errorf("cluster: unknown worker")

// Pull hands the worker the oldest pending cell, or parks for up to the
// coordinator's PollWait (or until ctx ends) in case one arrives. A nil
// task with nil error means "nothing available, poll again".
func (c *Coordinator) Pull(ctx context.Context, id string) (*Task, error) {
	c.mu.Lock()
	w := c.workers[id]
	if w == nil || c.closed {
		c.mu.Unlock()
		return nil, ErrUnknownWorker
	}
	w.lastSeen = c.cfg.Now()
	if len(c.pending) > 0 {
		t := c.takeLocked(w)
		c.mu.Unlock()
		return exportTask(t), nil
	}
	ch := make(chan *task, 1)
	c.waiters = append(c.waiters, waiter{w: w, ch: ch})
	c.mu.Unlock()

	wait := time.NewTimer(c.cfg.PollWait)
	defer wait.Stop()
	select {
	case t, ok := <-ch:
		if !ok {
			return nil, ErrUnknownWorker // reaped or closed while parked
		}
		return exportTask(t), nil
	case <-wait.C:
	case <-ctx.Done():
	case <-c.stop:
	}
	// Timed out or canceled: withdraw the waiter; lose the race gracefully
	// if a task was handed over at the same moment.
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waiters = removeWaiter(c.waiters, ch)
	select {
	case t, ok := <-ch:
		if ok && t != nil {
			return exportTask(t), nil
		}
	default:
	}
	return nil, ctx.Err()
}

// Report delivers a worker's result for a task. Late or duplicate reports
// — the task finished elsewhere after a requeue, or the caller abandoned
// it — are dropped idempotently: reporting is always safe.
func (c *Coordinator) Report(workerID, taskID string, blob []byte, workErr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[workerID]; w != nil {
		w.lastSeen = c.cfg.Now()
	}
	t := c.tasks[taskID]
	if t == nil || t.owner == "" || t.owner != workerID {
		c.mLateReports.Inc()
		return
	}
	delete(c.tasks, taskID)
	if w := c.workers[workerID]; w != nil {
		w.running = removeTask(w.running, t)
	}
	c.mCompleted.Inc()
	t.result <- taskResult{blob: blob, err: workErr}
}

// Leave deregisters a worker cleanly, requeueing anything it still holds
// (without burning an attempt — a clean leave is not a failure).
func (c *Coordinator) Leave(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return ErrUnknownWorker
	}
	c.dropWorkerLocked(w, false)
	return nil
}

// reapLoop periodically declares workers dead after TTL of silence.
func (c *Coordinator) reapLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.ReapEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.reapOnce()
		}
	}
}

// reapOnce requeues the cells of every worker whose liveness window has
// lapsed. Requeued in-flight cells burn one attempt; a cell over the
// attempt budget fails instead of bouncing between dying workers forever.
func (c *Coordinator) reapOnce() {
	c.mu.Lock()
	defer c.mu.Unlock()
	deadline := c.cfg.Now().Add(-c.cfg.TTL)
	for _, w := range c.workers {
		if w.lastSeen.After(deadline) {
			continue
		}
		c.mDead.Inc()
		c.dropWorkerLocked(w, true)
	}
}

// dropWorkerLocked removes a worker, releases its parked pulls and puts
// its in-flight cells back at the head of the queue, ahead of cells that
// arrived after them. Every in-flight cell moved back counts as a requeue;
// died additionally burns an attempt per in-flight cell and enforces the
// attempt budget (a reap is a failure, a voluntary leave is not).
func (c *Coordinator) dropWorkerLocked(w *workerState, died bool) {
	delete(c.workers, w.id)
	c.mWorkers.Set(int64(len(c.workers)))
	kept := c.waiters[:0]
	for _, p := range c.waiters {
		if p.w == w {
			close(p.ch)
			continue
		}
		kept = append(kept, p)
	}
	c.waiters = kept

	var again []*task
	for _, t := range w.running {
		t.owner = ""
		c.mRequeued.Inc()
		if died {
			t.attempts++
			if t.attempts >= c.cfg.MaxAttempts {
				delete(c.tasks, t.id)
				c.mFailed.Inc()
				t.result <- taskResult{err: fmt.Errorf(
					"cluster: cell %s failed on %d workers (last: %s died)",
					t.hash, t.attempts, w.id)}
				continue
			}
		}
		again = append(again, t)
	}
	w.running = nil
	c.pending = append(again, c.pending...)
	c.wakeLocked()
}

// Task is the wire view of one dispatched cell.
type Task struct {
	ID   string       `json:"task_id"`
	Spec spec.RunSpec `json:"spec"`
	Hash string       `json:"hash"`
}

func exportTask(t *task) *Task {
	return &Task{ID: t.id, Spec: t.rs, Hash: t.hash}
}

// WorkerInfo is the introspection view of one registered worker.
type WorkerInfo struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	Running int    `json:"running"`
}

// Workers lists the registered workers sorted by ID, plus the number of
// pending cells no worker holds yet.
func (c *Coordinator) Workers() (workers []WorkerInfo, pending int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		workers = append(workers, WorkerInfo{ID: w.id, Name: w.name, Running: len(w.running)})
	}
	slices.SortFunc(workers, func(a, b WorkerInfo) int { return cmp.Compare(a.ID, b.ID) })
	return workers, len(c.pending)
}

// removeTask filters t out of a task list, preserving order.
func removeTask(q []*task, t *task) []*task {
	for i, cur := range q {
		if cur == t {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// removeWaiter filters ch's pull out of a waiter list, preserving order.
func removeWaiter(ws []waiter, ch chan *task) []waiter {
	for i, cur := range ws {
		if cur.ch == ch {
			return append(ws[:i], ws[i+1:]...)
		}
	}
	return ws
}
