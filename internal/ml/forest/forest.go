package forest

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Config holds forest training options.
type Config struct {
	// Trees is the ensemble size (default 200; R's default is 500).
	Trees int
	// MinLeaf is the minimum rows per leaf (default 1).
	MinLeaf int
	// MaxDepth caps tree depth (0 = unlimited).
	MaxDepth int
	// Workers bounds concurrent tree construction (default GOMAXPROCS).
	Workers int
	// Seed drives bootstrap and feature sampling.
	Seed uint64
	// Span, when set, receives an "rf.trees" child span covering tree
	// construction; nil is a no-op and timing never touches the RNG.
	Span *obs.Span
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 200
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// mtry is the number of the p features tried per split: sqrt(p) for
// classification, p/3 for regression, at least one.
func mtry(p int, regression bool) int {
	if regression {
		return max(p/3, 1)
	}
	return max(int(math.Sqrt(float64(p))), 1)
}

// Classifier is a trained random-forest classifier: its Spec plus the
// training-side state behind the OOB estimates, which a restored
// classifier lacks.
type Classifier struct {
	cfg   Config
	spec  Spec
	oob   [][]int // per tree: training-row indices not in its bootstrap
	train *dataset.Dataset
}

// TrainClassifier fits a random forest on the dataset, which must hold no
// NaN. The returned model retains a reference to the training data for
// OOB-based estimates.
func TrainClassifier(d *dataset.Dataset, cfg Config) (*Classifier, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("forest: empty training set")
	}
	cfg = cfg.withDefaults()
	tsp := cfg.Span.Child("rf.trees")
	tsp.SetAttr("trees", cfg.Trees)
	defer tsp.End()
	cfg.Span = nil // keep trained models from retaining the trace tree
	s, err := newTrainingSet(d.X, d.Y, d.NumClasses(), nil, cfg)
	if err != nil {
		return nil, err
	}
	c := &Classifier{
		cfg:   cfg,
		spec:  Spec{Classes: d.ClassNames, Trees: make([][]NodeSpec, cfg.Trees)},
		oob:   make([][]int, cfg.Trees),
		train: d,
	}
	// Tree t's randomness comes from Split(t), so the ensemble is
	// identical at any worker count.
	root := rng.New(cfg.Seed)
	if err := parallel.ForEachSeeded(root, cfg.Workers, cfg.Trees, func(t int, r *rng.Rand) error {
		rows, oob := bootstrap(r, d.Len())
		c.spec.Trees[t] = s.tree(rows, r)
		c.oob[t] = oob
		return nil
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// bootstrap samples n rows with replacement and returns the in-bag row
// list plus the out-of-bag indices.
func bootstrap(r *rng.Rand, n int) (rows, oob []int) {
	rows = make([]int, n)
	in := make([]bool, n)
	for i := range rows {
		j := r.Intn(n)
		rows[i] = j
		in[j] = true
	}
	for i, ok := range in {
		if !ok {
			oob = append(oob, i)
		}
	}
	return rows, oob
}

// Classes returns the class vocabulary.
func (c *Classifier) Classes() []string { return c.spec.Classes }

// Predict returns the majority-vote class index.
func (c *Classifier) Predict(x []float64) int { return Majority(c.Votes(x)) }

// Votes returns per-class tree vote counts.
func (c *Classifier) Votes(x []float64) []int {
	votes := make([]int, len(c.spec.Classes))
	for _, t := range c.spec.Trees {
		votes[leaf(t, x).Pred]++
	}
	return votes
}

// PredictProb returns the winning class and the vote-fraction probability
// vector, the randomForest analogue of the SVM's coupled posteriors.
func (c *Classifier) PredictProb(x []float64) (int, []float64) {
	probs := make([]float64, len(c.spec.Classes))
	return Shares(c.Votes(x), len(c.spec.Trees), probs), probs
}

// Shares writes into probs each class's fraction of the votes cast by
// trees trees, and returns Majority(votes).
func Shares(votes []int, trees int, probs []float64) int {
	for i, v := range votes {
		probs[i] = float64(v) / float64(trees)
	}
	return Majority(votes)
}

// Majority returns the class with the most votes, the lowest index on
// ties.
func Majority(votes []int) int {
	best := 0
	for i, v := range votes {
		if v > votes[best] {
			best = i
		}
	}
	return best
}

// OOBError returns the out-of-bag misclassification rate, the forest's
// internal generalization estimate.
func (c *Classifier) OOBError() float64 {
	if c.train == nil {
		return 0 // restored from a snapshot
	}
	n := c.train.Len()
	votes := make([][]int, n)
	for i := range votes {
		votes[i] = make([]int, len(c.spec.Classes))
	}
	for t, tr := range c.spec.Trees {
		for _, i := range c.oob[t] {
			votes[i][leaf(tr, c.train.X[i]).Pred]++
		}
	}
	wrong, counted := 0, 0
	for i, v := range votes {
		best := Majority(v)
		if v[best] == 0 {
			continue // never out of bag
		}
		counted++
		if best != c.train.Y[i] {
			wrong++
		}
	}
	if counted == 0 {
		return 0
	}
	return float64(wrong) / float64(counted)
}

// Importance computes permutation importance: for every feature, the mean
// over trees of (OOB accuracy) - (OOB accuracy after permuting that
// feature among the tree's OOB rows). This is randomForest's
// MeanDecreaseAccuracy, the quantity plotted in the paper's Figure 5.
func (c *Classifier) Importance() []float64 {
	if c.train == nil {
		return nil // restored from a snapshot: no training data retained
	}
	p := c.train.NumFeatures()
	root := rng.New(c.cfg.Seed ^ 0x1a9e57ac) // distinct stream from training
	// Collect per-tree contributions in tree order and reduce serially:
	// summing floats in completion order would make the importance vector
	// drift across runs at worker count > 1.
	locals, _ := parallel.MapSeeded(root, c.cfg.Workers, len(c.spec.Trees), func(t int, r *rng.Rand) ([]float64, error) {
		return c.treeImportance(t, r), nil
	})
	imp := make([]float64, p)
	for _, local := range locals {
		for f := range imp {
			imp[f] += local[f]
		}
	}
	for f := range imp {
		imp[f] /= float64(len(c.spec.Trees))
	}
	return imp
}

// treeImportance computes one tree's per-feature OOB accuracy decrease.
func (c *Classifier) treeImportance(t int, r *rng.Rand) []float64 {
	oob := c.oob[t]
	tr := c.spec.Trees[t]
	p := c.train.NumFeatures()
	out := make([]float64, p)
	if len(oob) == 0 {
		return out
	}
	base := 0
	for _, i := range oob {
		if leaf(tr, c.train.X[i]).Pred == c.train.Y[i] {
			base++
		}
	}
	row := make([]float64, p)
	perm := make([]int, len(oob))
	for f := 0; f < p; f++ {
		copy(perm, oob)
		r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		correct := 0
		for k, i := range oob {
			copy(row, c.train.X[i])
			row[f] = c.train.X[perm[k]][f] // permuted feature value
			if leaf(tr, row).Pred == c.train.Y[i] {
				correct++
			}
		}
		out[f] = float64(base-correct) / float64(len(oob))
	}
	return out
}
