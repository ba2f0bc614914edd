package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json in step
// with the workloads and metrics this program defines.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloadTable))
	}
	for i, w := range workloadTable {
		if got := bj.Workloads[i]; got.Name != w.name || got.Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d is %+v, want %s: %s (at most 200 characters)", i, got, w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics, want %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	var setupBound, maxBound float64
	for i, d := range endToEndMetrics {
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end metric %d is %+v, want %+v with a bound in (0, 0.25]", i, got, d)
		}
		maxBound = max(maxBound, got.Bound)
		if got.Name == "setup_s" {
			setupBound = got.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest, %v", setupBound, maxBound)
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics, want %d", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d is %+v, want %+v", i, got, d)
		}
	}
}
