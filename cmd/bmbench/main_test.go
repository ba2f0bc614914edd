package main

import (
	"reflect"
	"testing"
)

// TestTightenNeverLoosens checks that a refreshed baseline keeps, case by
// case and figure by figure, the lower of the old and new results, keeps
// the baseline's cases this run skipped, adds the run's new cases and
// leaves the run's own results alone.
func TestTightenNeverLoosens(t *testing.T) {
	base := snapshot{Date: "old", Results: map[string]caseResult{
		"Slower":  {NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 300, Iterations: 10},
		"Faster":  {NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 300, Iterations: 10},
		"Skipped": {NsPerOp: 50, AllocsPerOp: 1, BytesPerOp: 8, Iterations: 20},
	}}
	cur := snapshot{Date: "new", Results: map[string]caseResult{
		"Slower": {NsPerOp: 180, AllocsPerOp: 4, BytesPerOp: 320, Iterations: 6},
		"Faster": {NsPerOp: 80, AllocsPerOp: 6, BytesPerOp: 290, Iterations: 12},
		"New":    {NsPerOp: 7, AllocsPerOp: 0, BytesPerOp: 0, Iterations: 1000},
	}}
	curCopy := snapshot{Date: cur.Date, Results: map[string]caseResult{}}
	for n, r := range cur.Results {
		curCopy.Results[n] = r
	}
	got := tighten(base, cur)
	want := map[string]caseResult{
		"Slower":  {NsPerOp: 100, AllocsPerOp: 4, BytesPerOp: 300, Iterations: 10},
		"Faster":  {NsPerOp: 80, AllocsPerOp: 5, BytesPerOp: 290, Iterations: 12},
		"Skipped": {NsPerOp: 50, AllocsPerOp: 1, BytesPerOp: 8, Iterations: 20},
		"New":     {NsPerOp: 7, AllocsPerOp: 0, BytesPerOp: 0, Iterations: 1000},
	}
	if got.Date != "new" || !reflect.DeepEqual(got.Results, want) {
		t.Errorf("tighten = %+v, want date new and %+v", got, want)
	}
	if !reflect.DeepEqual(cur, curCopy) {
		t.Errorf("tighten changed the run's own results: %+v", cur)
	}
}
