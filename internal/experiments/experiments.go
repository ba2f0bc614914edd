// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a named driver that runs the required
// simulations and renders the same rows/series the paper reports; the
// registry powers cmd/paper and the root-level benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"bimodal/internal/engine"
	"bimodal/internal/stats"
	"bimodal/internal/telemetry"
	"bimodal/internal/workloads"
)

// Options scales an experiment run.
type Options struct {
	// AccessesPerCore is the per-core replay quota for timing runs.
	AccessesPerCore int64
	// StreamAccesses is the total access count for functional stream
	// studies (Figures 1, 2, 5).
	StreamAccesses int64
	// Seed decorrelates reruns. Every cell's randomness derives purely
	// from (Seed, cell identity), never from execution order, so tables
	// are byte-identical at any worker count.
	Seed uint64
	// MaxMixes bounds the number of workload mixes per core count
	// (0 = all) so quick runs and benchmarks stay cheap.
	MaxMixes int
	// Workers bounds the experiment engine's worker pool. 0 selects
	// runtime.NumCPU(); 1 forces serial execution.
	Workers int
	// Progress, when non-nil, receives one progress line per completed
	// simulation cell (cmd/paper points it at stderr).
	Progress io.Writer
}

// DefaultOptions returns full-scale settings for cmd/paper.
func DefaultOptions() Options {
	return Options{
		AccessesPerCore: 300_000,
		StreamAccesses:  2_000_000,
		Seed:            1,
	}
}

// QuickOptions returns reduced settings for tests and benchmarks.
func QuickOptions() Options {
	return Options{
		AccessesPerCore: 8_000,
		StreamAccesses:  120_000,
		Seed:            1,
		MaxMixes:        3,
	}
}

// normalize fills defaults.
func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.AccessesPerCore == 0 {
		o.AccessesPerCore = d.AccessesPerCore
	}
	if o.StreamAccesses == 0 {
		o.StreamAccesses = d.StreamAccesses
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// mixes returns up to MaxMixes workloads for the core count.
func (o Options) mixes(cores int) []workloads.Mix {
	ms, err := workloads.ForCores(cores)
	if err != nil {
		panic(err)
	}
	if o.MaxMixes > 0 && len(ms) > o.MaxMixes {
		ms = ms[:o.MaxMixes]
	}
	return ms
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the registry key (fig1, table3, ...).
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment's simulation cells on the engine pool
	// and renders its table. Cancelling ctx stops the in-flight cells
	// within a few thousand simulated accesses and returns ctx.Err().
	Run func(context.Context, Options) (*stats.Table, error)
}

// cell is one independent simulation unit that no run spec describes (a
// W/P design-sweep point or a functional stream study; the rest are
// batches). Each cell builds its own scheme instance, generators and
// statistics inside run, so cells share no mutable state and may execute
// on any worker in any order.
type cell[T any] struct {
	// label identifies the cell in progress output ("Q7 bimodal").
	label string
	// run executes the cell. It must derive all randomness from its
	// inputs, never from execution order, so results are deterministic at
	// any worker count.
	run func(context.Context) (T, error)
}

// runCells fans the cells out over the experiment engine's bounded worker
// pool (Options.Workers, default NumCPU) and collects their values in
// submission order — the assembly that follows is then identical to what
// a serial loop would have produced. One progress line is emitted per
// completed cell when Options.Progress is set.
func runCells[T any](ctx context.Context, o Options, id string, cells []cell[T]) ([]T, error) {
	n := newNotifier(o, id, len(cells))
	return engine.Map(ctx, engine.Workers(o.Workers), len(cells), func(ctx context.Context, i int) (T, error) {
		v, err := cells[i].run(ctx)
		if err == nil {
			n.cellDone(cells[i].label)
		}
		return v, err
	})
}

// notifier serializes per-cell status lines; cells complete concurrently,
// so the counter and the writer sit behind one mutex. A line carries the
// time since the experiment started: cells that share a run complete
// together, so a cell has no time of its own.
type notifier struct {
	mu    sync.Mutex
	w     io.Writer
	id    string
	start time.Time
	total int
	done  int
}

func newNotifier(o Options, id string, total int) *notifier {
	return &notifier{w: o.Progress, id: id, start: telemetry.Now(), total: total} //bmlint:wallclock — progress timing only
}

func (n *notifier) cellDone(label string) {
	if n.w == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.done++
	d := telemetry.Since(n.start) //bmlint:wallclock
	fmt.Fprintf(n.w, "%s [%d/%d] %-28s %8s\n", n.id, n.done, n.total, label, d.Round(time.Millisecond))
}

var registry = map[string]Experiment{}

// register adds an experiment at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// ByID returns a registered experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return e, nil
}

// IDs lists registered experiment IDs in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns all experiments in ID order.
func All() []Experiment {
	var out []Experiment
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}
