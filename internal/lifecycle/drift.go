package lifecycle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
)

// Drift is measured with the Population Stability Index over quantile
// bins frozen at training time: for baseline proportions q and window
// proportions p, PSI = sum_i (p_i - q_i) * ln(p_i / q_i). Both sides
// are Laplace-smoothed with the same counts-plus-one rule, so a window
// holding exactly the baseline's row multiset yields PSI == 0 exactly
// (every p_i equals its q_i bit-for-bit), and the statistic is a pure
// function of bin counts — permutation-invariant by construction.

// Baseline freezes the training-time reference the drift monitors
// compare live traffic against: per-feature quantile bin edges and
// smoothed bin proportions, plus the champion's predicted-class mix
// over the training rows (the posterior-drift reference).
type Baseline struct {
	Features []string
	Classes  []string
	Bins     int

	// Rows is the training row count the proportions were computed
	// over (the smoothing denominator).
	Rows int

	// Edges[f] holds Bins-1 ascending interior edges for feature f;
	// values below Edges[f][0] land in bin 0, values at or above the
	// last edge land in bin Bins-1.
	Edges [][]float64

	// FeatProp[f] and ClassProp are the Laplace-smoothed baseline
	// proportions ((count+1) / (n+bins)) per feature bin and per
	// predicted class.
	FeatProp  [][]float64
	ClassProp []float64

	classIdx map[string]int
}

// NewBaseline builds the drift reference from the (raw, unscaled)
// training dataset and the champion's predicted class labels for its
// rows. classes is the champion's class vocabulary; preds must use it.
func NewBaseline(d *dataset.Dataset, preds []string, classes []string, bins int) (*Baseline, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("lifecycle: empty baseline dataset")
	}
	if len(preds) != d.Len() {
		return nil, fmt.Errorf("lifecycle: %d baseline predictions for %d rows", len(preds), d.Len())
	}
	if bins < 2 {
		return nil, fmt.Errorf("lifecycle: need at least 2 bins, got %d", bins)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("lifecycle: empty class vocabulary")
	}
	b := &Baseline{
		Features: append([]string(nil), d.FeatureNames...),
		Classes:  append([]string(nil), classes...),
		Bins:     bins,
		Rows:     d.Len(),
		classIdx: make(map[string]int, len(classes)),
	}
	for i, c := range classes {
		b.classIdx[c] = i
	}

	n := d.Len()
	col := make([]float64, n)
	for f := range b.Features {
		for i, row := range d.X {
			col[i] = row[f]
		}
		sort.Float64s(col)
		edges := make([]float64, 0, bins-1)
		for j := 1; j < bins; j++ {
			edges = append(edges, col[j*n/bins])
		}
		b.Edges = append(b.Edges, edges)
	}

	// Baseline proportions come from rebinning the training rows with
	// the frozen edges (quantile ties make them unequal; what matters
	// is that the window side bins identically).
	featCounts := make([][]int, len(b.Features))
	for f := range featCounts {
		featCounts[f] = make([]int, bins)
	}
	classCounts := make([]int, len(classes))
	for i, row := range d.X {
		for f, x := range row {
			featCounts[f][binOf(b.Edges[f], x)]++
		}
		ci, ok := b.classIdx[preds[i]]
		if !ok {
			return nil, fmt.Errorf("lifecycle: baseline prediction %q not in class vocabulary", preds[i])
		}
		classCounts[ci]++
	}
	b.FeatProp = make([][]float64, len(b.Features))
	for f := range b.FeatProp {
		b.FeatProp[f] = smooth(featCounts[f], n)
	}
	b.ClassProp = smooth(classCounts, n)
	return b, nil
}

// binOf places x into a bin: the number of interior edges <= x, i.e.
// sort.SearchFloat64s for the first edge strictly greater than x. A
// pure function of (edges, x), so identical rows always rebin
// identically regardless of window order.
func binOf(edges []float64, x float64) int {
	return sort.Search(len(edges), func(i int) bool { return edges[i] > x })
}

// smooth converts counts over n observations into Laplace-smoothed
// proportions: (count+1) / (n + len(counts)). Smoothing keeps every
// log ratio finite, and because both baseline and window use the same
// rule, equal counts give exactly equal proportions.
func smooth(counts []int, n int) []float64 {
	out := make([]float64, len(counts))
	den := float64(n + len(counts))
	for i, c := range counts {
		out[i] = float64(c+1) / den
	}
	return out
}

// psiCounts computes the Population Stability Index between a window's
// bin counts over n observations, smoothed by the rule smooth applies
// ((count+1) / (n+bins)), and the baseline proportions q. Equal counts
// give exactly 0: every term is (p-q)*ln(p/q) with p == q bit-for-bit.
// It allocates nothing, so the per-row path can call it under the loop
// lock.
func psiCounts(counts []int, n int, q []float64) float64 {
	den := float64(n + len(counts))
	var s float64
	for i, c := range counts {
		p := float64(c+1) / den
		if p == q[i] {
			continue
		}
		s += (p - q[i]) * math.Log(p/q[i])
	}
	return s
}

// FeaturePSI computes per-feature PSI for a window of raw rows. It is
// the reference form: the loop's window keeps the same bin counts
// incrementally and must agree with it bit for bit.
func (b *Baseline) FeaturePSI(rows [][]float64) []float64 {
	out := make([]float64, len(b.Features))
	if len(rows) == 0 {
		return out
	}
	counts := make([]int, b.Bins)
	for f := range b.Features {
		clear(counts)
		for _, row := range rows {
			counts[binOf(b.Edges[f], row[f])]++
		}
		out[f] = psiCounts(counts, len(rows), b.FeatProp[f])
	}
	return out
}

// PosteriorPSI computes PSI between the window's predicted-class counts
// and the baseline class mix. classCounts is indexed by ClassIndex.
func (b *Baseline) PosteriorPSI(classCounts []int, rows int) float64 {
	if rows == 0 {
		return 0
	}
	return psiCounts(classCounts, rows, b.ClassProp)
}

// ClassIndex resolves a predicted label to its position in the
// baseline's class vocabulary.
func (b *Baseline) ClassIndex(label string) (int, bool) {
	i, ok := b.classIdx[label]
	return i, ok
}
