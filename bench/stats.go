package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it. No interpolation, so a reported latency is always one
// a request really had. Empty input gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is what the driver judges a metric's spread with. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure the benchmark contract uses. Fewer than two
// samples have no spread (0).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	med := stats.Median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// sliceItems cuts the window into `slices` 1-second slices and credits
// each operation's items to the slices its [start, end) interval (in
// seconds from the window's opening) overlaps, in proportion to the
// overlap. Crediting by overlap rather than by completion keeps a
// slice's count from jumping by a whole 2048-row request. The reported
// throughput is the median of these slices, not a total over the window,
// so a stalled second drags one slice down and not the rate.
func sliceItems(starts, ends []float64, items []int, slices int) []float64 {
	per := make([]float64, max(slices, 0))
	for i := range starts {
		a, b := starts[i], ends[i]
		if b <= a {
			if s := int(a); a >= 0 && s < slices {
				per[s] += float64(items[i])
			}
			continue
		}
		rate := float64(items[i]) / (b - a)
		for s := max(int(a), 0); s < slices && float64(s) < b; s++ {
			lo, hi := math.Max(a, float64(s)), math.Min(b, float64(s+1))
			if hi > lo {
				per[s] += rate * (hi - lo)
			}
		}
	}
	return per
}
