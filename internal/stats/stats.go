// Package stats provides the streaming and batch statistics primitives used
// throughout the SUPReMM pipeline: Welford accumulators for numerically
// stable mean/variance, coefficient-of-variation computation (the paper's
// "...COV" attributes), quantiles, and feature standardization for the ML
// models.
package stats

import (
	"math"
	"sort"
)

// Accumulator computes running mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the running mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the population variance (divide by n).
func (a *Accumulator) Variance() float64 {
	if a.n == 0 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev returns the population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// COV returns the coefficient of variation: population standard deviation
// divided by the mean. By SUPReMM convention a zero (or single-observation)
// mean yields COV 0 rather than NaN, so single-node jobs report zero
// across-node variation.
func (a *Accumulator) COV() float64 {
	if a.n < 2 || a.mean == 0 {
		return 0
	}
	return a.StdDev() / math.Abs(a.mean)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted. It returns
// 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the median of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Scaler standardizes features to zero mean and unit variance, the
// preprocessing the paper's RBF-kernel SVM requires. Columns with zero
// variance are passed through centered only.
type Scaler struct {
	Means  []float64
	Stds   []float64
	fitted bool
}

// FitScaler computes per-column means and standard deviations from rows.
func FitScaler(rows [][]float64) *Scaler {
	if len(rows) == 0 {
		panic("stats: FitScaler with no rows")
	}
	p := len(rows[0])
	accs := make([]Accumulator, p)
	for _, row := range rows {
		if len(row) != p {
			panic("stats: FitScaler ragged rows")
		}
		for j, v := range row {
			accs[j].Add(v)
		}
	}
	s := &Scaler{Means: make([]float64, p), Stds: make([]float64, p), fitted: true}
	for j := range accs {
		s.Means[j] = accs[j].Mean()
		sd := accs[j].StdDev()
		if sd == 0 {
			sd = 1
		}
		s.Stds[j] = sd
	}
	return s
}

// Transform standardizes row in place and returns it.
func (s *Scaler) Transform(row []float64) []float64 {
	if !s.fitted {
		panic("stats: Scaler not fitted")
	}
	for j := range row {
		row[j] = (row[j] - s.Means[j]) / s.Stds[j]
	}
	return row
}

// TransformAll standardizes every row in place.
func (s *Scaler) TransformAll(rows [][]float64) {
	for _, row := range rows {
		s.Transform(row)
	}
}

// ArgsortDesc returns the indices that would sort xs in descending order.
func ArgsortDesc(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx
}

// RestoreScaler rebuilds a fitted scaler from persisted parameters.
func RestoreScaler(means, stds []float64) *Scaler {
	return &Scaler{Means: means, Stds: stds, fitted: true}
}
