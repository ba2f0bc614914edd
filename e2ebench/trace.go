package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bimodal/internal/dramcache"
	"bimodal/internal/snapshot"
	"bimodal/internal/store"
	"bimodal/internal/trace"
)

// span is one timed interval of the traced run, written as one JSONL record.
// Times are nanoseconds since the tracer started; Parent is the ID of the
// enclosing span (-1 for a root) and Cell the unit the span belongs to.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Cell   int32  `json:"cell"`
}

// tracer keeps the spans of the traced run in memory. Span recording is safe
// from several goroutines: the service calls the timing store from its
// workers while the benchmark's own goroutine records the sweep spans.
type tracer struct {
	epoch time.Time
	// clockNs is the median cost of reading the clock, which every timed
	// call carries once and which estimates subtract.
	clockNs float64

	mu    sync.Mutex
	spans []span

	// unit is the unit being run and parent the innermost open span, the
	// parent of spans recorded from inside the layers.
	unit   atomic.Int32
	parent atomic.Int32
	// detail makes the sampled per-access calls record spans too, not only
	// their counts and times. It is set for one traced cell: half a million
	// recorded spans would cost the cells 6% in appends and collections.
	// Only the goroutine running the cells reads or sets it.
	detail bool
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.parent.Store(-1)
	d := make([]float64, 1001)
	for i := range d {
		a := t.now()
		d[i] = float64(t.now() - a)
	}
	t.clockNs = median(d)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name string, start, end int64, parent int32) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, Cell: t.unit.Load()})
	t.mu.Unlock()
	return id
}

// begin opens a span; end closes it and returns its duration.
func (t *tracer) begin(name string, parent int32) int32 { return t.add(name, t.now(), 0, parent) }

func (t *tracer) end(id int32) int64 {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// within opens a span and makes it the parent of spans the layers record
// until the returned function closes it and returns its duration.
func (t *tracer) within(name string, parent int32) func() int64 {
	id := t.begin(name, parent)
	t.parent.Store(id)
	return func() int64 {
		t.parent.Store(parent)
		return t.end(id)
	}
}

// write stores the spans as JSONL at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampleEvery is the sampling period of per-access spans. One clock read
// costs about as much as a trace generator call, so timing every call would
// double the cell. A call counter picks the calls, so every run times the
// same ones.
const sampleEvery = 32

// sampler counts calls and sums the durations of the timed ones.
type sampler struct {
	calls   int64
	timed   int64
	timedNs int64
}

func (s *sampler) observe(ns int64) {
	s.timed++
	s.timedNs += ns
}

// meanNs estimates one call's duration: the mean of the timed calls less the
// clock read each of them carries.
func (s *sampler) meanNs(clockNs float64) float64 {
	if s.timed == 0 {
		return 0
	}
	return float64(s.timedNs)/float64(s.timed) - clockNs
}

// totalNs estimates the time spent in all calls.
func (s *sampler) totalNs(clockNs float64) float64 { return s.meanNs(clockNs) * float64(s.calls) }

// tracedGen wraps one core's trace generator and times every sampleEvery-th
// Next across all cores. It forwards Tenants, Reset and the snapshot methods,
// which the engine finds by type assertion: without them per-tenant results,
// pooled reuse or warm restore would change.
type tracedGen struct {
	inner trace.Generator
	t     *tracer
	s     *sampler // shared by every core
}

func (g *tracedGen) Next() trace.Access {
	g.s.calls++
	if g.s.calls%sampleEvery != 0 {
		return g.inner.Next()
	}
	t0 := g.t.now()
	a := g.inner.Next()
	t1 := g.t.now()
	g.s.observe(t1 - t0)
	if g.t.detail {
		g.t.add("trace.next", t0, t1, g.t.parent.Load())
	}
	return a
}

func (g *tracedGen) Name() string      { return g.inner.Name() }
func (g *tracedGen) Reset(seed uint64) { g.inner.Reset(seed) }

// Tenants reports the wrapped generator's tenant count; a single-tenant
// generator has one, which the engine treats as none.
func (g *tracedGen) Tenants() int {
	if tc, ok := g.inner.(interface{ Tenants() int }); ok {
		return tc.Tenants()
	}
	return 1
}

func (g *tracedGen) SnapshotState(w *snapshot.Writer) {
	g.inner.(snapshot.Snapshotter).SnapshotState(w)
}
func (g *tracedGen) RestoreState(r *snapshot.Reader) { g.inner.(snapshot.Snapshotter).RestoreState(r) }

// tracedScheme wraps a DRAM cache scheme and times every sampleEvery-th
// Access, splitting calls and timings by hit and miss. While rec is non-nil
// it also records the request stream, which the core cache is replayed on.
type tracedScheme struct {
	inner     dramcache.Scheme
	t         *tracer
	calls     int64
	hit, miss sampler
	rec       []dramcache.Request
	recHits   int64
}

func (s *tracedScheme) Access(req dramcache.Request, now int64) dramcache.Result {
	s.calls++
	if s.calls%sampleEvery != 0 && s.rec == nil {
		r := s.inner.Access(req, now)
		if r.Hit {
			s.hit.calls++
		} else {
			s.miss.calls++
		}
		return r
	}
	return s.sampledAccess(req, now)
}

// sampledAccess is Access for the calls that are timed or recorded.
func (s *tracedScheme) sampledAccess(req dramcache.Request, now int64) dramcache.Result {
	if s.rec != nil {
		s.rec = append(s.rec, req)
	}
	timed := s.calls%sampleEvery == 0
	var t0 int64
	if timed {
		t0 = s.t.now()
	}
	r := s.inner.Access(req, now)
	o, name := &s.miss, "dramcache.miss"
	if r.Hit {
		o, name = &s.hit, "dramcache.hit"
		if s.rec != nil {
			s.recHits++
		}
	}
	o.calls++
	if timed {
		t1 := s.t.now()
		o.observe(t1 - t0)
		if s.t.detail {
			s.t.add(name, t0, t1, s.t.parent.Load())
		}
	}
	return r
}

func (s *tracedScheme) Name() string             { return s.inner.Name() }
func (s *tracedScheme) Report() dramcache.Report { return s.inner.Report() }
func (s *tracedScheme) ResetStats()              { s.inner.ResetStats() }
func (s *tracedScheme) Reset(cfg dramcache.Config) bool {
	r, ok := s.inner.(dramcache.Resetter)
	return ok && r.Reset(cfg)
}
func (s *tracedScheme) SnapshotState(w *snapshot.Writer) {
	s.inner.(snapshot.Snapshotter).SnapshotState(w)
}
func (s *tracedScheme) RestoreState(r *snapshot.Reader) {
	s.inner.(snapshot.Snapshotter).RestoreState(r)
}

// timedStore wraps the service's result store and times every call. The
// service calls it from its own goroutines, so its counters sit under mu.
type timedStore struct {
	inner store.Store
	t     *tracer

	mu                    sync.Mutex
	gets, getHits, getNs  int64
	puts, putNs, putBytes int64
}

func (s *timedStore) Get(hash string) ([]byte, bool, error) {
	t0 := s.t.now()
	b, ok, err := s.inner.Get(hash)
	t1 := s.t.now()
	s.t.add("store.get", t0, t1, s.t.parent.Load())
	s.mu.Lock()
	s.gets++
	s.getNs += t1 - t0
	if ok {
		s.getHits++
	}
	s.mu.Unlock()
	return b, ok, err
}

func (s *timedStore) Put(hash string, blob []byte) error {
	t0 := s.t.now()
	err := s.inner.Put(hash, blob)
	t1 := s.t.now()
	s.t.add("store.put", t0, t1, s.t.parent.Load())
	s.mu.Lock()
	s.puts++
	s.putNs += t1 - t0
	s.putBytes += int64(len(blob))
	s.mu.Unlock()
	return err
}

func (s *timedStore) Len() (int, error) { return s.inner.Len() }

// zero clears the counters, leaving the stored blobs.
func (s *timedStore) zero() {
	s.mu.Lock()
	s.gets, s.getHits, s.getNs, s.puts, s.putNs, s.putBytes = 0, 0, 0, 0, 0, 0
	s.mu.Unlock()
}
