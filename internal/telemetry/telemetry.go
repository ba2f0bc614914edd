// Package telemetry provides a small concurrency-safe metrics registry —
// counters, gauges and histograms over lock-free atomics — with Prometheus
// text exposition. It exists beside internal/stats because stats is
// deliberately single-threaded (each simulation cell owns its counters);
// the serving layer needs cross-goroutine instrumentation (queue depth,
// sweeps in flight, cell latency) that many workers update concurrently.
//
// Metric names may carry a fixed label set inline, Prometheus-style:
//
//	reg.Counter(`bimodal_sweeps_total`)
//	reg.Histogram(`bimodal_cell_seconds{scheme="alloy"}`, LatencyBuckets()...)
//
// The registry treats the full string as the metric identity and splits
// the base name back out only when rendering TYPE lines.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Now and Since are the simulator's only sanctioned wall-clock access
// points (the "wall-clock seam"). Simulated time advances exclusively
// through the timing model; wall-clock reads exist purely for telemetry
// (phase throughput, cell latency) and must never feed back into
// simulated state. The bmdeterminism analyzer forbids raw time.Now /
// time.Since in simulator packages and requires calls to these functions
// to be annotated //bmlint:wallclock at the call site, which keeps every
// wall-clock read greppable and reviewed.

// Now returns the current wall-clock time for telemetry.
//
//bmlint:wallclock
func Now() time.Time { return time.Now() }

// Since returns the wall-clock duration since t for telemetry.
//
//bmlint:wallclock
func Since(t time.Time) time.Duration { return time.Since(t) }

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an int64 that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed buckets. Observations and
// snapshots are lock-free; a snapshot taken during concurrent Observe
// calls is consistent to within the in-flight observations.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // smallest i with bounds[i] >= v
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra slot for
	// the +Inf bucket. Counts are per-bucket, not cumulative.
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.n.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use; the per-metric
// constructors are get-or-create, so hot paths may call them directly.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Registering the same name as a different metric kind panics —
// that is a programming error, not an operational condition.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if needed (later bounds are ignored for
// an existing histogram).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	h := newHistogram(bounds)
	r.hists[name] = h
	return h
}

// checkFree panics when name is already registered as another kind.
// Callers hold r.mu. The kinds are checked in a fixed order (not via a
// map) so the panic message is deterministic.
func (r *Registry) checkFree(name, kind string) {
	for _, k := range [...]struct {
		kind  string
		taken bool
	}{
		{"counter", r.counters[name] != nil},
		{"gauge", r.gauges[name] != nil},
		{"histogram", r.hists[name] != nil},
	} {
		if k.taken {
			panic(fmt.Sprintf("telemetry: %q already registered as %s, requested as %s", name, k.kind, kind))
		}
	}
}

// Default is the process-wide registry for instrumentation that has no
// natural owner — the simulation engine's throughput histograms, for
// example, are observed from wherever a run happens (CLI, server worker,
// test) and scraped alongside any server-owned registry.
var Default = NewRegistry()

// RateBuckets returns bucket bounds for simulator throughput in
// accesses/second: roughly log-spaced from heavily-instrumented debug runs
// (100K/s) through the zero-allocation hot path (tens of millions/s).
func RateBuckets() []float64 {
	return []float64{1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8}
}

// LatencyBuckets returns bucket bounds (seconds) suited to simulation
// cell durations: sub-millisecond unit tests through minute-scale runs.
func LatencyBuckets() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}
}

// splitName separates an inline label set from the base metric name:
// `x{a="b"}` -> ("x", `a="b"`); names without braces pass through.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// fmtFloat renders a float the way Prometheus expects.
func fmtFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by name so output is stable for tests and diffing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type entry struct {
		name, kind string
		counter    *Counter
		gauge      *Gauge
		hist       *Histogram
	}
	entries := make([]entry, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n, c := range r.counters {
		entries = append(entries, entry{name: n, kind: "counter", counter: c})
	}
	for n, g := range r.gauges {
		entries = append(entries, entry{name: n, kind: "gauge", gauge: g})
	}
	for n, h := range r.hists {
		entries = append(entries, entry{name: n, kind: "histogram", hist: h})
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	typed := map[string]bool{}
	for _, e := range entries {
		base, labels := splitName(e.name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, e.kind); err != nil {
				return err
			}
		}
		var err error
		switch e.kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.counter.Value())
		case "gauge":
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.gauge.Value())
		case "histogram":
			err = writeHistogram(w, base, labels, e.hist.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram emits the _bucket/_sum/_count triplet with cumulative
// bucket counts, merging the le label into any inline label set.
func writeHistogram(w io.Writer, base, labels string, s HistogramSnapshot) error {
	le := func(bound string) string {
		if labels == "" {
			return fmt.Sprintf(`{le=%q}`, bound)
		}
		return fmt.Sprintf(`{%s,le=%q}`, labels, bound)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	cum := int64(0)
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, le(fmtFloat(b)), cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, le("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, fmtFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, s.Count)
	return err
}
