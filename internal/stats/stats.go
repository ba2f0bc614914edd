// Package stats provides the counters, histograms and table rendering used
// by every simulator component and by the experiment drivers.
//
// Counters are plain int64/float64 wrappers with convenience ratios; they
// are not concurrency-safe because the simulator is single-threaded by
// design (deterministic trace-driven timing).
package stats

import (
	"fmt"
	"strings"

	"bimodal/internal/snapshot"
)

// Ratio returns num/den, or 0 when den is zero. Handy for hit rates over
// possibly-empty streams.
func Ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Improvement returns the relative improvement of after over before as a
// fraction: (before-after)/before for "lower is better" metrics. Zero when
// before is zero.
func Improvement(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (before - after) / before
}

// Histogram is a fixed-bucket integer histogram (bucket i counts value i).
// Values beyond the last bucket are clamped into it.
type Histogram struct {
	buckets []int64
	total   int64
}

// NewHistogram creates a histogram with n buckets for values 0..n-1.
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		panic("stats: NewHistogram with non-positive bucket count")
	}
	return &Histogram{buckets: make([]int64, n)}
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
	h.total++
}

// Count returns the number of observations in bucket i.
func (h *Histogram) Count(i int) int64 { return h.buckets[i] }

// Total returns the total number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Fraction returns the fraction of observations in bucket i.
func (h *Histogram) Fraction(i int) float64 { return Ratio(h.buckets[i], h.total) }

// CumFraction returns the fraction of observations in buckets 0..i.
func (h *Histogram) CumFraction(i int) float64 {
	var c int64
	for j := 0; j <= i && j < len(h.buckets); j++ {
		c += h.buckets[j]
	}
	return Ratio(c, h.total)
}

// SnapshotState implements snapshot.Snapshotter (bucket counts and the
// running total; the bucket count itself is configuration).
func (h *Histogram) SnapshotState(w *snapshot.Writer) {
	w.Tag("hist")
	w.I64s(h.buckets)
	w.I64(h.total)
}

// RestoreState implements snapshot.Snapshotter. h must have been built
// with the same bucket count as the producer.
func (h *Histogram) RestoreState(r *snapshot.Reader) {
	r.Tag("hist")
	r.I64s(h.buckets)
	h.total = r.I64()
}

// Reset clears all buckets.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.total = 0
}

// Mean is an online mean accumulator.
type Mean struct {
	sum float64
	n   int64
}

// Add records one sample.
func (m *Mean) Add(v float64) { m.sum += v; m.n++ }

// Value returns the mean, or 0 with no samples.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// N returns the number of samples.
func (m *Mean) N() int64 { return m.n }

// Sum returns the raw sum.
func (m *Mean) Sum() float64 { return m.sum }

// MeanOf returns the arithmetic mean of vals (0 for empty).
func MeanOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Table accumulates rows of strings and renders them with aligned columns,
// suitable for experiment output that mirrors the paper's tables.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row. Cells beyond the header width are permitted.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// NumRows returns the number of data rows added.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	grow := func(row []string) {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	grow(t.header)
	for _, r := range t.rows {
		grow(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", max(total-2, 1)))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row first, cells with
// commas or quotes quoted), for piping experiment output into plotting
// tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// FmtPct formats a fraction as a percentage string like "12.3%".
func FmtPct(frac float64) string { return fmt.Sprintf("%.1f%%", 100*frac) }

// FmtBytes formats a byte count with a binary suffix.
func FmtBytes(n float64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", n/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKB", n/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", n)
	}
}
