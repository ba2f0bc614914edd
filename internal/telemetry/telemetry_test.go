package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("c_total").Inc()
				reg.Gauge("g").Add(1)
				reg.Gauge("g").Add(-1)
			}
		}()
	}
	wg.Wait()
	if v := reg.Counter("c_total").Value(); v != 8000 {
		t.Errorf("counter = %d, want 8000", v)
	}
	if v := reg.Gauge("g").Value(); v != 0 {
		t.Errorf("gauge = %d, want 0", v)
	}
}

func TestGetOrCreateReturnsSameInstance(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Error("Counter should be get-or-create")
	}
	if reg.Histogram("h", 1, 2) != reg.Histogram("h") {
		t.Error("Histogram should be get-or-create")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge should panic")
		}
	}()
	reg.Gauge("dup")
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 1} // le=0.1 gets 0.05 and 0.1; +Inf gets 100
	for i, n := range want {
		if s.Counts[i] != n {
			t.Errorf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], n, s)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-102.65) > 1e-9 {
		t.Errorf("sum = %v, want 102.65", s.Sum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewRegistry().Histogram("h", 0.5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 || s.Counts[0] != 8000 {
		t.Errorf("count = %d bucket0 = %d, want 8000", s.Count, s.Counts[0])
	}
	if math.Abs(s.Sum-2000) > 1e-6 {
		t.Errorf("sum = %v, want 2000", s.Sum)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total").Add(3)
	reg.Gauge("queue_depth").Set(2)
	reg.Histogram("cell_seconds", 1, 5).Observe(0.5)
	reg.Histogram("cell_seconds", 1, 5).Observe(7)
	reg.Histogram(`hit_rate{scheme="alloy"}`, 0.5, 1).Observe(0.4)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE jobs_total counter\njobs_total 3\n",
		"# TYPE queue_depth gauge\nqueue_depth 2\n",
		"# TYPE cell_seconds histogram\n",
		"cell_seconds_bucket{le=\"1\"} 1\n",
		"cell_seconds_bucket{le=\"5\"} 1\n",
		"cell_seconds_bucket{le=\"+Inf\"} 2\n",
		"cell_seconds_sum 7.5\n",
		"cell_seconds_count 2\n",
		"# TYPE hit_rate histogram\n",
		"hit_rate_bucket{scheme=\"alloy\",le=\"0.5\"} 1\n",
		"hit_rate_sum{scheme=\"alloy\"} 0.4\n",
		"hit_rate_count{scheme=\"alloy\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Output must be stable across calls (sorted).
	var b2 strings.Builder
	reg.WritePrometheus(&b2)
	if b2.String() != out {
		t.Error("WritePrometheus output not stable")
	}
}

func TestDefaultBucketsSorted(t *testing.T) {
	for _, bs := range [][]float64{LatencyBuckets(), RateBuckets()} {
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Errorf("buckets not strictly increasing: %v", bs)
			}
		}
	}
}
