package stats

import (
	"math"
	"strings"
	"testing"
)

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if Ratio(1, 2) != 0.5 {
		t.Error("Ratio(1,2) != 0.5")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 80); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Improvement = %v", got)
	}
	if Improvement(0, 5) != 0 {
		t.Error("Improvement with zero before should be 0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(9)
	for v := 0; v <= 8; v++ {
		h.Add(v)
	}
	h.Add(100) // clamps to last bucket
	h.Add(-3)  // clamps to first
	if h.Total() != 11 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Count(8) != 2 {
		t.Errorf("last bucket = %d, want 2", h.Count(8))
	}
	if h.Count(0) != 2 {
		t.Errorf("first bucket = %d, want 2", h.Count(0))
	}
	if got := h.Fraction(8); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("Fraction(8) = %v", got)
	}
	if got := h.CumFraction(8); math.Abs(got-1) > 1e-12 {
		t.Errorf("CumFraction(last) = %v, want 1", got)
	}
	h.Reset()
	if h.Total() != 0 || h.Count(0) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Error("empty mean should be 0")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 {
		t.Errorf("mean = %v", m.Value())
	}
}

func TestMeanOf(t *testing.T) {
	if MeanOf(nil) != 0 {
		t.Error("MeanOf(nil) != 0")
	}
	if MeanOf([]float64{1, 2, 3}) != 2 {
		t.Error("MeanOf wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("beta", "0.500")
	s := tbl.String()
	if !strings.Contains(s, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "0.500") {
		t.Errorf("missing cells in:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), s)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("NumRows = %d", tbl.NumRows())
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("x", "a", "b")
	tbl.AddRow("1", "two,three")
	tbl.AddRow("quo\"te", "plain")
	got := tbl.CSV()
	want := "a,b\n1,\"two,three\"\n\"quo\"\"te\",plain\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestFormatters(t *testing.T) {
	if FmtPct(0.123) != "12.3%" {
		t.Errorf("FmtPct = %s", FmtPct(0.123))
	}
	if FmtBytes(2048) != "2.00KB" {
		t.Errorf("FmtBytes = %s", FmtBytes(2048))
	}
	if FmtBytes(3*1<<20) != "3.00MB" {
		t.Errorf("FmtBytes = %s", FmtBytes(3*1<<20))
	}
	if FmtBytes(512) != "512B" {
		t.Errorf("FmtBytes = %s", FmtBytes(512))
	}
	if FmtBytes(5*1<<30) != "5.00GB" {
		t.Errorf("FmtBytes = %s", FmtBytes(5*1<<30))
	}
}
