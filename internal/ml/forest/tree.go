// Package forest implements Breiman-style random forests equivalent to the
// R randomForest package the paper used: CART trees grown on bootstrap
// samples with sqrt(p) feature subsampling, out-of-bag error estimation,
// permutation importance (the paper's Figure 5 "mean decrease in accuracy"),
// class-probability votes, and regression forests for the
// application-kernel wall-time extension.
//
// Classification trees use randomForest's presorted split search
// (makeA/movedata): each feature's rows are sorted once per forest, every
// tree expands those lists by its bootstrap draws, and each split
// partitions them stably, so a node's split search is a linear Gini scan.
// Regression sorts per node, because its variance scan sums float targets
// and so depends on the order of tied values.
package forest

import (
	"cmp"
	"fmt"
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

// trainingSet is what every tree of one forest reads and none writes.
type trainingSet struct {
	cols       [][]float64 // cols[f][row]: the features, column by column
	sorted     [][]int32   // classification: sorted[f] is the rows by ascending cols[f]
	y          []int       // class indices (classification)
	target     []float64   // regression targets
	numClasses int
	mtry       int
	minLeaf    int
	maxDepth   int
	regression bool
}

// newTrainingSet checks x, copies it column by column and, for
// classification (target nil), presorts it. A NaN is refused: it is
// unordered, so no split could place it consistently.
func newTrainingSet(x [][]float64, y []int, numClasses int, target []float64, cfg Config) (*trainingSet, error) {
	n, p := len(x), len(x[0])
	regression := target != nil
	cols := make([][]float64, p)
	for f := range cols {
		cols[f] = make([]float64, n)
	}
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("forest: row %d has %d features, want %d", i, len(row), p)
		}
		for f, v := range row {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("forest: row %d feature %d is NaN", i, f)
			}
			cols[f][i] = v
		}
	}
	for i, v := range target {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("forest: row %d target is NaN", i)
		}
	}
	s := &trainingSet{
		cols: cols, y: y, target: target, numClasses: numClasses,
		mtry: mtry(p, regression), minLeaf: cfg.MinLeaf, maxDepth: cfg.MaxDepth, regression: regression,
	}
	if !regression {
		s.presort(n)
	}
	return s, nil
}

// presort stable-sorts every feature's n rows by value (randomForest's
// makeA), once for all the forest's trees.
func (s *trainingSet) presort(n int) {
	s.sorted = make([][]int32, len(s.cols))
	for f, col := range s.cols {
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		s.sorted[f] = order
	}
}

// tree grows one tree on the bootstrap draws rows (one per training row),
// with feature sampling from r.
func (s *trainingSet) tree(rows []int, r *rng.Rand) []NodeSpec {
	n := len(rows)
	b := &treeBuilder{
		trainingSet: s,
		r:           r,
		draws:       make([]int32, n),
		goLeft:      make([]uint8, n),
		right:       make([]int32, n),
		featOrder:   make([]int, len(s.cols)),
	}
	for i, row := range rows {
		b.draws[i] = int32(row)
	}
	for i := range b.featOrder {
		b.featOrder[i] = i
	}
	if s.regression {
		b.cands = make([]splitCandidate, n)
	} else {
		b.counts = make([]int, 3*s.numClasses)
		b.expand()
	}
	b.grow(0, n, 0)
	return b.nodes
}

// treeBuilder grows one tree. Its sample is held in lists of the
// bootstrap draws: draws in draw order and, for classification, one list
// per feature in that feature's value order. A node owns the range
// [lo, hi) of every list, and a split partitions each range stably into
// the two children's (randomForest's movedata), so every list stays in
// its order within each node and no node allocates a list.
type treeBuilder struct {
	*trainingSet
	r *rng.Rand

	nodes  []NodeSpec
	draws  []int32   // the bootstrap draws, in draw order
	lists  [][]int32 // classification: lists[f] is draws by ascending cols[f]
	goLeft []uint8   // per row: 1 if the split being applied sends it left, else 0
	right  []int32   // partition scratch

	featOrder []int
	counts    []int            // the node's class counts, then scanGini's left and right counts
	cands     []splitCandidate // regression's per-node sort
}

// expand lays out lists: each presorted feature order with every row
// repeated as often as the bootstrap drew it.
func (b *treeBuilder) expand() {
	n := len(b.draws)
	mult := make([]int32, n)
	for _, d := range b.draws {
		mult[d]++
	}
	// A counting sort keyed by each row's place in the feature's order:
	// pos[row] is where the row's first copy goes.
	pos := make([]int32, n)
	b.lists = make([][]int32, len(b.sorted))
	for f, order := range b.sorted {
		var k int32
		for _, row := range order {
			pos[row] = k
			k += mult[row]
		}
		// One allocation per list: a block holding them all would be a
		// large object every tree, which the heap reuses worse than small
		// ones (it raised peak RSS).
		list := make([]int32, n)
		for _, d := range b.draws {
			list[pos[d]] = d
			pos[d]++
		}
		b.lists[f] = list
	}
}

// grow grows the subtree over the draws in [lo, hi) and returns its node
// index.
func (b *treeBuilder) grow(lo, hi, depth int) int32 {
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, NodeSpec{Feature: -1})
	pure := b.label(&b.nodes[idx], b.draws[lo:hi])
	if hi-lo < 2*b.minLeaf || (b.maxDepth > 0 && depth >= b.maxDepth) || pure {
		return idx
	}

	feature, threshold, ok := b.bestSplit(lo, hi)
	if !ok {
		return idx
	}

	// Send draws by the threshold prediction applies, not by the scan's
	// position: (v+next)/2 can round onto next or overflow to ±Inf.
	col := b.cols[feature]
	nl := 0
	for _, r := range b.draws[lo:hi] {
		var left uint8
		if col[r] <= threshold {
			left = 1
		}
		b.goLeft[r] = left
		nl += int(left)
	}
	if nl < b.minLeaf || hi-lo-nl < b.minLeaf {
		return idx
	}
	b.partition(b.draws[lo:hi])
	for _, list := range b.lists {
		b.partition(list[lo:hi])
	}

	mid := lo + nl
	l := b.grow(lo, mid, depth+1)
	rt := b.grow(mid, hi, depth+1)
	b.nodes[idx].Feature = feature
	b.nodes[idx].Threshold = threshold
	b.nodes[idx].Left = l
	b.nodes[idx].Right = rt
	return idx
}

// label sets n's prediction from the node's draws, the majority class or
// the mean target, and reports whether they all share one class / target.
// For classification it leaves the class counts in b.counts for
// bestSplit.
func (b *treeBuilder) label(n *NodeSpec, draws []int32) (pure bool) {
	if b.regression {
		first := b.target[draws[0]]
		pure = true
		var sum float64
		for _, r := range draws {
			t := b.target[r]
			sum += t
			pure = pure && t == first
		}
		n.Value = sum / float64(len(draws))
		return pure
	}
	counts := b.counts[:b.numClasses]
	clear(counts)
	for _, r := range draws {
		counts[b.y[r]]++
	}
	best := 0
	for c, k := range counts {
		if k > counts[best] {
			best = c
		}
	}
	n.Pred = best
	return counts[best] == len(draws)
}

// partition reorders s so the draws goLeft sends left come first, each
// side keeping its order.
func (b *treeBuilder) partition(s []int32) {
	right := b.right[:len(s)]
	k, j := 0, 0
	for _, r := range s {
		// Both stores, one advance: no branch to mispredict.
		left := int(b.goLeft[r])
		s[k] = r
		right[j] = r
		k += left
		j += 1 - left
	}
	copy(s[k:], right[:j])
}

// splitCandidate pairs a feature value with its row for sorting.
type splitCandidate struct {
	v   float64
	row int32
}

// bestSplit searches mtry random features for the impurity-minimizing
// threshold over the node's draws [lo, hi).
func (b *treeBuilder) bestSplit(lo, hi int) (feature int, threshold float64, ok bool) {
	// Sample mtry features without replacement (partial Fisher-Yates).
	nf := len(b.featOrder)
	for i := 0; i < b.mtry && i < nf; i++ {
		j := i + b.r.Intn(nf-i)
		b.featOrder[i], b.featOrder[j] = b.featOrder[j], b.featOrder[i]
	}

	bestScore := math.Inf(1)
	for fi := 0; fi < b.mtry && fi < nf; fi++ {
		f := b.featOrder[fi]
		var score, thr float64
		var found bool
		if b.regression {
			score, thr, found = b.scanVariance(b.sortNode(f, b.draws[lo:hi]))
		} else {
			score, thr, found = b.scanGini(b.cols[f], b.lists[f][lo:hi])
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

// scanGini scans a node's draws, in ascending order of col, for the
// weighted-Gini-minimizing split. Its sums are of integer counts, which
// float64 holds exactly, and it scores only between distinct values, so
// the order of tied draws cannot change what it returns.
func (b *treeBuilder) scanGini(col []float64, sorted []int32) (best, thr float64, ok bool) {
	k := b.numClasses
	leftCounts, rightCounts := b.counts[k:2*k], b.counts[2*k:3*k]
	clear(leftCounts)
	copy(rightCounts, b.counts[:k])
	var leftSq, rightSq float64
	for _, c := range rightCounts {
		rightSq += float64(c) * float64(c)
	}
	n := len(sorted)
	best = math.Inf(1)
	next := col[sorted[0]]
	for i := 0; i < n-1; i++ {
		cls := b.y[sorted[i]]
		// Move draw i from right to left, updating sums of squares.
		leftSq += float64(2*leftCounts[cls] + 1)
		rightSq -= float64(2*rightCounts[cls] - 1)
		leftCounts[cls]++
		rightCounts[cls]--
		v := next
		next = col[sorted[i+1]]
		if v == next {
			continue // cannot split between equal values
		}
		nl, nr := float64(i+1), float64(n-i-1)
		// Weighted Gini = nl*(1 - leftSq/nl^2) + nr*(1 - rightSq/nr^2);
		// dropping the constant n, minimize -(leftSq/nl + rightSq/nr).
		score := -(leftSq/nl + rightSq/nr)
		if score < best {
			best = score
			thr = (v + next) / 2
			ok = true
		}
	}
	return best, thr, ok
}

// sortNode returns the node's draws paired with feature f's values and
// sorted on the value alone, starting from draw order: a row tie-break,
// or any other starting order, would reorder equal values and with them
// scanVariance's float sums.
func (b *treeBuilder) sortNode(f int, draws []int32) []splitCandidate {
	col := b.cols[f]
	cands := b.cands[:len(draws)]
	for i, r := range draws {
		cands[i] = splitCandidate{v: col[r], row: r}
	}
	slices.SortFunc(cands, func(a, b splitCandidate) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	return cands
}

// scanVariance scans sorted candidates for the variance-minimizing split.
func (b *treeBuilder) scanVariance(cands []splitCandidate) (best, thr float64, ok bool) {
	n := len(cands)
	var rightSum float64
	for _, c := range cands {
		rightSum += b.target[c.row]
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
