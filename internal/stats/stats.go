// Package stats provides the streaming and batch statistics primitives used
// throughout the SUPReMM pipeline: Welford accumulators for numerically
// stable mean/variance, coefficient-of-variation computation (the paper's
// "...COV" attributes), quantiles, histograms, correlation, and feature
// standardization for the ML models.
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
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

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

// Min returns the minimum observation, or 0 with no observations.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the maximum observation, or 0 with no observations.
func (a *Accumulator) Max() float64 { return a.max }

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

// Merge combines another accumulator into this one (parallel Welford merge).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	mean := a.mean + delta*float64(b.n)/float64(n)
	m2 := a.m2 + b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n, a.mean, a.m2 = n, mean, m2
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.StdDev()
}

// COV returns the coefficient of variation of xs (see Accumulator.COV).
func COV(xs []float64) float64 {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.COV()
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

// Correlation returns the Pearson correlation coefficient between xs and ys.
// It panics if the lengths differ and returns 0 when either side has zero
// variance.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Correlation length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

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

// Inverse undoes the standardization of row in place and returns it.
func (s *Scaler) Inverse(row []float64) []float64 {
	for j := range row {
		row[j] = row[j]*s.Stds[j] + s.Means[j]
	}
	return row
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
