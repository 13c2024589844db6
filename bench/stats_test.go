package main

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty input must give 0")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4): the driver judges spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12, 11, 13, 40, 12.5, 11.5, 12, 13.5, 9}, 10.75, 13.125},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if spread([]float64{7}) != 0 {
		t.Error("one sample has no spread")
	}
}

func TestSliceItemsCreditByOverlap(t *testing.T) {
	// One 100-item operation spanning [0.5, 2.5): a quarter of it falls in
	// slice 0, half in slice 1, a quarter in slice 2.
	starts, ends, items := []float64{0.5}, []float64{2.5}, []int{100}
	if got := stats.Median(sliceItems(starts, ends, items, 3)); !near(got, 25) {
		t.Errorf("median of [25 50 25] = %v", got)
	}
	// A stalled second lowers one slice, not the median.
	starts = []float64{0, 1, 3, 4}
	ends = []float64{1, 2, 4, 5}
	items = []int{10, 10, 10, 10}
	if got := stats.Median(sliceItems(starts, ends, items, 5)); got != 10 {
		t.Errorf("median with one empty slice = %v, want 10", got)
	}
	// Work past the last full slice is not counted.
	if got := stats.Median(sliceItems([]float64{0, 1.5}, []float64{1, 2.5}, []int{8, 8}, 2)); !near(got, 6) {
		t.Errorf("median of [8 4] = %v, want 6", got)
	}
}
