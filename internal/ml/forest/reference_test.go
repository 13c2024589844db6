package forest

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// referenceTree is the split search the forest used before it presorted:
// every node sorts its rows on each feature it tries and partitions them
// into fresh left and right lists. It is kept as the oracle the presorted
// trees must equal node for node.
type referenceTree struct {
	x          [][]float64
	y          []int     // class indices (classification)
	target     []float64 // regression targets
	numClasses int
	mtry       int
	minLeaf    int
	maxDepth   int
	regression bool
	r          *rng.Rand

	nodes     []NodeSpec
	featOrder []int
}

func (b *referenceTree) build(rows []int) []NodeSpec {
	b.featOrder = make([]int, len(b.x[0]))
	for i := range b.featOrder {
		b.featOrder[i] = i
	}
	b.grow(rows, 0)
	return b.nodes
}

func (b *referenceTree) grow(rows []int, depth int) int32 {
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

func (b *referenceTree) pure(rows []int) bool {
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

type referenceCandidate struct {
	v   float64
	row int
}

func (b *referenceTree) bestSplit(rows []int) (feature int, threshold float64, ok bool) {
	nf := len(b.featOrder)
	for i := 0; i < b.mtry && i < nf; i++ {
		j := i + b.r.Intn(nf-i)
		b.featOrder[i], b.featOrder[j] = b.featOrder[j], b.featOrder[i]
	}

	bestScore := math.Inf(1)
	cands := make([]referenceCandidate, len(rows))
	for fi := 0; fi < b.mtry && fi < nf; fi++ {
		f := b.featOrder[fi]
		for i, r := range rows {
			cands[i] = referenceCandidate{v: b.x[r][f], row: r}
		}
		slices.SortFunc(cands, func(a, b referenceCandidate) int {
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

func (b *referenceTree) scanGini(cands []referenceCandidate) (best, thr float64, ok bool) {
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
		leftSq += float64(2*leftCounts[cls] + 1)
		rightSq -= float64(2*rightCounts[cls] - 1)
		leftCounts[cls]++
		rightCounts[cls]--
		if cands[i].v == cands[i+1].v {
			continue
		}
		nl, nr := float64(i+1), float64(n-i-1)
		score := -(leftSq/nl + rightSq/nr)
		if score < best {
			best = score
			thr = (cands[i].v + cands[i+1].v) / 2
			ok = true
		}
	}
	return best, thr, ok
}

func (b *referenceTree) scanVariance(cands []referenceCandidate) (best, thr float64, ok bool) {
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
		score := -(leftSum*leftSum/nl + rightSum*rightSum/nr)
		if score < best {
			best = score
			thr = (cands[i].v + cands[i+1].v) / 2
			ok = true
		}
	}
	return best, thr, ok
}

// referenceForest grows the trees TrainClassifier grows on (x, y) — or,
// with target non-nil, the ones TrainRegressor grows on (x, target) —
// through referenceTree, drawing the same bootstrap and feature samples.
func referenceForest(x [][]float64, y []int, numClasses int, target []float64, cfg Config) [][]NodeSpec {
	cfg = cfg.withDefaults()
	regression := target != nil
	trees := make([][]NodeSpec, cfg.Trees)
	// The closure never fails, so neither can the loop.
	_ = parallel.ForEachSeeded(rng.New(cfg.Seed), 1, cfg.Trees, func(t int, r *rng.Rand) error {
		rows, _ := bootstrap(r, len(x))
		b := &referenceTree{
			x: x, y: y, target: target, numClasses: numClasses, regression: regression,
			mtry: mtry(len(x[0]), regression), minLeaf: cfg.MinLeaf, maxDepth: cfg.MaxDepth, r: r,
		}
		trees[t] = b.build(rows)
		return nil
	})
	return trees
}

// checkReferenceParity fails t unless TrainClassifier and TrainRegressor
// grow, on the dataset of c, exactly the trees referenceForest grows.
func checkReferenceParity(t *testing.T, c tieCase, cfg Config) {
	t.Helper()
	d, y := tieDataset(c)
	m, err := TrainClassifier(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceForest(d.X, d.Y, d.NumClasses(), nil, cfg); !reflect.DeepEqual(m.spec.Trees, want) {
		t.Fatalf("%+v %+v: classification trees differ from the per-node sort", c, cfg)
	}
	reg, err := TrainRegressor(d.X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceForest(d.X, nil, 0, y, cfg); !reflect.DeepEqual(reg.trees, want) {
		t.Fatalf("%+v %+v: regression trees differ from the per-node sort", c, cfg)
	}
}

// TestPresortedMatchesReference holds the presorted search to the
// per-node sort on the tie-heavy golden cases and on continuous data
// of the served shape.
func TestPresortedMatchesReference(t *testing.T) {
	for _, c := range tieCases {
		for _, minLeaf := range []int{1, 5} {
			for _, maxDepth := range []int{0, 4} {
				checkReferenceParity(t, c, Config{Trees: 10, Seed: c.seed, MinLeaf: minLeaf, MaxDepth: maxDepth})
			}
		}
	}
	d := servedShape()
	cfg := Config{Trees: 8, Seed: 3}
	m, err := TrainClassifier(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.spec.Trees, referenceForest(d.X, d.Y, d.NumClasses(), nil, cfg)) {
		t.Fatal("served shape: classification trees differ from the per-node sort")
	}
}

// FuzzTreeParity grows forests on small fuzzer-shaped tie-heavy datasets
// and requires the presorted trees to equal the per-node sort's.
func FuzzTreeParity(f *testing.F) {
	for _, c := range tieCases {
		for _, minLeaf := range []uint8{1, 5} {
			for _, maxDepth := range []uint8{0, 4} {
				f.Add(c.seed, uint8(c.rows), uint8(c.feats), uint8(c.levels), uint8(c.classes), minLeaf, maxDepth)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, rows, feats, levels, classes, minLeaf, maxDepth uint8) {
		c := tieCase{
			seed:    seed,
			rows:    1 + int(rows)%96,
			feats:   3 + int(feats)%6,
			levels:  2 + int(levels)%3,
			classes: 1 + int(classes)%5,
		}
		checkReferenceParity(t, c, Config{Trees: 6, Seed: seed, MinLeaf: int(minLeaf % 8), MaxDepth: int(maxDepth % 8)})
	})
}
