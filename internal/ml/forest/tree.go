// Package forest implements Breiman-style random forests equivalent to the
// R randomForest package the paper used: CART trees grown on bootstrap
// samples with sqrt(p) feature subsampling, out-of-bag error estimation,
// permutation importance (the paper's Figure 5 "mean decrease in accuracy"),
// class-probability votes, and regression forests for the
// application-kernel wall-time extension.
package forest

import (
	"math"
	"slices"

	"repro/internal/rng"
)

// leaf walks a trained CART tree (its node array, root first) to the
// leaf x falls in.
func leaf(tree []NodeSpec, x []float64) *NodeSpec {
	i := 0
	for {
		n := &tree[i]
		if n.Feature < 0 {
			return n
		}
		if x[n.Feature] <= n.Threshold {
			i = int(n.Left)
		} else {
			i = int(n.Right)
		}
	}
}

// treeBuilder grows one tree on a sample of rows.
type treeBuilder struct {
	x          [][]float64
	y          []int     // class indices (classification)
	target     []float64 // regression targets
	numClasses int
	mtry       int
	minLeaf    int
	maxDepth   int
	regression bool
	r          *rng.Rand

	nodes []NodeSpec
	// scratch buffers reused across splits
	featOrder []int
}

func (b *treeBuilder) build(rows []int) []NodeSpec {
	b.featOrder = make([]int, len(b.x[0]))
	for i := range b.featOrder {
		b.featOrder[i] = i
	}
	b.grow(rows, 0)
	return b.nodes
}

// grow recursively grows the subtree over rows and returns its node index.
func (b *treeBuilder) grow(rows []int, depth int) int32 {
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, NodeSpec{Feature: -1})

	if b.regression {
		var sum float64
		for _, r := range rows {
			sum += b.target[r]
		}
		b.nodes[idx].Value = sum / float64(len(rows))
	} else {
		counts := make([]int, b.numClasses)
		for _, r := range rows {
			counts[b.y[r]]++
		}
		best := 0
		for c, n := range counts {
			if n > counts[best] {
				best = c
			}
		}
		b.nodes[idx].Pred = best
	}

	if len(rows) < 2*b.minLeaf || (b.maxDepth > 0 && depth >= b.maxDepth) || b.pure(rows) {
		return idx
	}

	feature, threshold, ok := b.bestSplit(rows)
	if !ok {
		return idx
	}

	var left, right []int
	for _, r := range rows {
		if b.x[r][feature] <= threshold {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < b.minLeaf || len(right) < b.minLeaf {
		return idx
	}

	l := b.grow(left, depth+1)
	rt := b.grow(right, depth+1)
	b.nodes[idx].Feature = feature
	b.nodes[idx].Threshold = threshold
	b.nodes[idx].Left = l
	b.nodes[idx].Right = rt
	return idx
}

// pure reports whether all rows share one class / identical target.
func (b *treeBuilder) pure(rows []int) bool {
	if b.regression {
		first := b.target[rows[0]]
		for _, r := range rows[1:] {
			if b.target[r] != first {
				return false
			}
		}
		return true
	}
	first := b.y[rows[0]]
	for _, r := range rows[1:] {
		if b.y[r] != first {
			return false
		}
	}
	return true
}

// splitCandidate pairs a feature value with its row for sorting.
type splitCandidate struct {
	v   float64
	row int
}

// bestSplit searches mtry random features for the impurity-minimizing
// threshold.
func (b *treeBuilder) bestSplit(rows []int) (feature int, threshold float64, ok bool) {
	// Sample mtry features without replacement (partial Fisher-Yates).
	nf := len(b.featOrder)
	for i := 0; i < b.mtry && i < nf; i++ {
		j := i + b.r.Intn(nf-i)
		b.featOrder[i], b.featOrder[j] = b.featOrder[j], b.featOrder[i]
	}

	bestScore := math.Inf(1)
	cands := make([]splitCandidate, len(rows))
	for fi := 0; fi < b.mtry && fi < nf; fi++ {
		f := b.featOrder[fi]
		for i, r := range rows {
			cands[i] = splitCandidate{v: b.x[r][f], row: r}
		}
		// On v alone: a row tie-break would reorder equal values and with
		// them scanVariance's float sums.
		slices.SortFunc(cands, func(a, b splitCandidate) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return 0
		})
		var score, thr float64
		var found bool
		if b.regression {
			score, thr, found = b.scanVariance(cands)
		} else {
			score, thr, found = b.scanGini(cands)
		}
		if found && score < bestScore {
			bestScore = score
			feature = f
			threshold = thr
			ok = true
		}
	}
	return feature, threshold, ok
}

// scanGini scans sorted candidates for the weighted-Gini-minimizing split.
func (b *treeBuilder) scanGini(cands []splitCandidate) (best, thr float64, ok bool) {
	n := len(cands)
	leftCounts := make([]int, b.numClasses)
	rightCounts := make([]int, b.numClasses)
	for _, c := range cands {
		rightCounts[b.y[c.row]]++
	}
	var leftSq, rightSq float64
	for _, c := range rightCounts {
		rightSq += float64(c) * float64(c)
	}
	best = math.Inf(1)
	for i := 0; i < n-1; i++ {
		cls := b.y[cands[i].row]
		// Move candidate i from right to left, updating sums of squares.
		leftSq += float64(2*leftCounts[cls] + 1)
		rightSq -= float64(2*rightCounts[cls] - 1)
		leftCounts[cls]++
		rightCounts[cls]--
		if cands[i].v == cands[i+1].v {
			continue // cannot split between equal values
		}
		nl, nr := float64(i+1), float64(n-i-1)
		// Weighted Gini = nl*(1 - leftSq/nl^2) + nr*(1 - rightSq/nr^2);
		// dropping the constant n, minimize -(leftSq/nl + rightSq/nr).
		score := -(leftSq/nl + rightSq/nr)
		if score < best {
			best = score
			thr = (cands[i].v + cands[i+1].v) / 2
			ok = true
		}
	}
	return best, thr, ok
}

// scanVariance scans sorted candidates for the variance-minimizing split.
func (b *treeBuilder) scanVariance(cands []splitCandidate) (best, thr float64, ok bool) {
	n := len(cands)
	var rightSum, rightSq float64
	for _, c := range cands {
		t := b.target[c.row]
		rightSum += t
		rightSq += t * t
	}
	var leftSum float64
	best = math.Inf(1)
	for i := 0; i < n-1; i++ {
		t := b.target[cands[i].row]
		leftSum += t
		rightSum -= t
		if cands[i].v == cands[i+1].v {
			continue
		}
		nl, nr := float64(i+1), float64(n-i-1)
		// Total within-split variance*n = sum(sq) - (sumL^2/nl + sumR^2/nr);
		// sum(sq) is constant, so minimize -(sumL^2/nl + sumR^2/nr).
		score := -(leftSum*leftSum/nl + rightSum*rightSum/nr)
		if score < best {
			best = score
			thr = (cands[i].v + cands[i+1].v) / 2
			ok = true
		}
	}
	return best, thr, ok
}
