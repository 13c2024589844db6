package compile

import (
	"fmt"
	"sort"

	"repro/internal/ml/forest"
)

// forestNode is one compiled tree node. Split nodes carry the feature,
// threshold and the index of their left child; the right child is
// always first+1 (the breadth-first relayout enqueues both children
// together), so descent needs no right pointer. Leaves have feature -1
// and carry the majority class.
type forestNode struct {
	threshold float64
	feature   int32 // -1 for leaves
	first     int32 // left child; right child is first+1
	pred      int32 // majority class at the node
}

// Forest is a compiled random-forest classifier: every tree's nodes
// relaid breadth-first into one contiguous array.
type Forest struct {
	classes []string
	nodes   []forestNode
	roots   []int32
	depths  []int32 // max node depth per tree (root = 0)
	trees   int
	maxFeat int // largest feature index any split tests (-1: all leaves)
}

// CompileForest lowers a forest spec, validating that every tree is a
// well-formed binary tree (indices in range, no shared or revisited
// nodes, class predictions inside the vocabulary).
func CompileForest(spec *forest.Spec) (*Forest, error) {
	if len(spec.Trees) == 0 {
		return nil, fmt.Errorf("compile: forest has no trees")
	}
	k := len(spec.Classes)
	if k == 0 {
		return nil, fmt.Errorf("compile: forest has no classes")
	}
	total := 0
	for _, ts := range spec.Trees {
		total += len(ts)
	}
	f := &Forest{
		classes: spec.Classes,
		nodes:   make([]forestNode, 0, total),
		roots:   make([]int32, 0, len(spec.Trees)),
		trees:   len(spec.Trees),
		maxFeat: -1,
	}
	f.depths = make([]int32, 0, len(spec.Trees))
	for t, ts := range spec.Trees {
		root, depth, err := f.layoutTree(ts, k)
		if err != nil {
			return nil, fmt.Errorf("compile: tree %d: %w", t, err)
		}
		f.roots = append(f.roots, root)
		f.depths = append(f.depths, depth)
	}
	// Visit trees in depth order so each interleaved group of four spans
	// similar depths: a group descends to its deepest member, so mixing a
	// deep tree with shallow ones wastes lane steps. Reordering is free
	// parity-wise — votes are commutative integer increments.
	sort.Sort(byDepth{f.depths, f.roots})
	return f, nil
}

// byDepth sorts the parallel (depths, roots) slices by descending depth.
type byDepth struct {
	depths []int32
	roots  []int32
}

func (s byDepth) Len() int           { return len(s.depths) }
func (s byDepth) Less(i, j int) bool { return s.depths[i] > s.depths[j] }
func (s byDepth) Swap(i, j int) {
	s.depths[i], s.depths[j] = s.depths[j], s.depths[i]
	s.roots[i], s.roots[j] = s.roots[j], s.roots[i]
}

// layoutTree appends one tree breadth-first and returns its root index
// in the global node array plus its maximum depth. BFS enqueues a
// split's children together, which is what guarantees they land in
// adjacent slots.
func (f *Forest) layoutTree(ts []forest.NodeSpec, numClasses int) (int32, int32, error) {
	if len(ts) == 0 {
		return 0, 0, fmt.Errorf("empty tree")
	}
	base := int32(len(f.nodes))
	// order[i] is the old index of the node at new position base+i.
	order := make([]int32, 0, len(ts))
	seen := make([]bool, len(ts))
	order = append(order, 0)
	seen[0] = true
	// newIndex[old] is only valid once old has been enqueued.
	newIndex := make([]int32, len(ts))
	depth := make([]int32, 0, len(ts)) // by BFS position, root = 0
	depth = append(depth, 0)
	maxDepth := int32(0)
	for qi := 0; qi < len(order); qi++ {
		old := order[qi]
		n := &ts[old]
		if n.Feature < 0 {
			if n.Pred < 0 || n.Pred >= numClasses {
				return 0, 0, fmt.Errorf("leaf %d predicts class %d outside vocabulary of %d", old, n.Pred, numClasses)
			}
			continue
		}
		l, r := n.Left, n.Right
		if l < 0 || int(l) >= len(ts) || r < 0 || int(r) >= len(ts) {
			return 0, 0, fmt.Errorf("node %d has child indices (%d, %d) outside [0, %d)", old, l, r, len(ts))
		}
		if seen[l] || seen[r] || l == r {
			return 0, 0, fmt.Errorf("node %d shares or revisits children (%d, %d): not a tree", old, l, r)
		}
		seen[l], seen[r] = true, true
		newIndex[l] = base + int32(len(order))
		newIndex[r] = base + int32(len(order)) + 1
		order = append(order, l, r)
		d := depth[qi] + 1
		depth = append(depth, d, d)
		if d > maxDepth {
			maxDepth = d
		}
	}
	for _, old := range order {
		n := &ts[old]
		fn := forestNode{threshold: n.Threshold, feature: -1, pred: int32(n.Pred)}
		if n.Feature >= 0 {
			fn.feature = int32(n.Feature)
			fn.first = newIndex[n.Left]
			if n.Feature > f.maxFeat {
				f.maxFeat = n.Feature
			}
		}
		f.nodes = append(f.nodes, fn)
	}
	return base, maxDepth, nil
}

// Classes returns the class vocabulary.
func (f *Forest) Classes() []string { return f.classes }

// Fits reports whether every split tests a feature index below p.
func (f *Forest) Fits(p int) bool { return f.maxFeat < p }

// NewScratch allocates a scratch sized for this forest.
func (f *Forest) NewScratch() *Scratch {
	k := len(f.classes)
	return &Scratch{votes: make([]int, k), probs: make([]float64, k)}
}

// leafPred descends one tree and returns the leaf's class. The split
// test mirrors the interpreted walk exactly — "go left when
// x[feature] <= threshold" — written as its negation so NaN feature
// values take the same (right) branch in both forms; the taken branch
// is then just an index add.
func (f *Forest) leafPred(root int32, row []float64) int32 {
	nodes := f.nodes
	i := root
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return n.pred
		}
		b := int32(0)
		if !(row[n.feature] <= n.threshold) {
			b = 1
		}
		i = n.first + b
	}
}

// votesInto tallies per-class tree votes into votes (len k). Trees are
// descended four at a time: each descent is a serial load-to-use
// dependency chain (node fetch -> compare -> child index -> next
// fetch), so four independent chains overlap in the pipeline where one
// would stall. Every lane runs for its group's maximum depth, stepping
// only while on a split node; a lane that reaches its leaf early just
// re-tests feature < 0. Vote tallies are integer increments, which
// commute exactly, so the final counts — and everything derived from
// them — are bit-identical to the one-tree-at-a-time walk.
func (f *Forest) votesInto(row []float64, votes []int) {
	for i := range votes {
		votes[i] = 0
	}
	nodes := f.nodes
	roots := f.roots
	t := 0
	for ; t+4 <= len(roots); t += 4 {
		i0, i1, i2, i3 := roots[t], roots[t+1], roots[t+2], roots[t+3]
		for {
			active := false
			if n := &nodes[i0]; n.feature >= 0 {
				active = true
				b := int32(0)
				if !(row[n.feature] <= n.threshold) {
					b = 1
				}
				i0 = n.first + b
			}
			if n := &nodes[i1]; n.feature >= 0 {
				active = true
				b := int32(0)
				if !(row[n.feature] <= n.threshold) {
					b = 1
				}
				i1 = n.first + b
			}
			if n := &nodes[i2]; n.feature >= 0 {
				active = true
				b := int32(0)
				if !(row[n.feature] <= n.threshold) {
					b = 1
				}
				i2 = n.first + b
			}
			if n := &nodes[i3]; n.feature >= 0 {
				active = true
				b := int32(0)
				if !(row[n.feature] <= n.threshold) {
					b = 1
				}
				i3 = n.first + b
			}
			if !active {
				break
			}
		}
		votes[nodes[i0].pred]++
		votes[nodes[i1].pred]++
		votes[nodes[i2].pred]++
		votes[nodes[i3].pred]++
	}
	for ; t < len(roots); t++ {
		votes[f.leafPred(roots[t], row)]++
	}
}

// Predict returns the majority-vote class index, bit-identical to the
// interpreted Classifier.Predict.
func (f *Forest) Predict(row []float64, s *Scratch) int {
	f.votesInto(row, s.votes)
	return forest.Majority(s.votes)
}

// PredictProb returns the winning class and vote-fraction posterior,
// bit-identical to the interpreted Classifier.PredictProb: both end in
// forest.Shares. The slice aliases scratch memory.
func (f *Forest) PredictProb(row []float64, s *Scratch) (int, []float64) {
	f.votesInto(row, s.votes)
	return forest.Shares(s.votes, f.trees, s.probs), s.probs
}
