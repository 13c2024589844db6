// Package ensemble implements a stacked "SuperLearner"-style classifier
// over the paper's three model families: naive Bayes, a random forest
// and a one-vs-one SVM as base learners, with a softmax meta-learner
// trained on out-of-fold base posteriors. Stacking is the natural
// challenger family for the closed-loop lifecycle: it can only match or
// beat its strongest base on the training objective, so a drift-trained
// stack is a credible promotion candidate without hand-tuning which
// single family copes best with the shifted distribution.
//
// Engine: the stack is an interpreted meta-learner over compiled bases.
// Every row it scores -- serving, shadow scoring, and the out-of-fold
// rows of its own training -- runs each base through its compiled form
// (internal/ml/compile: NB tables, flat forest, shared-kernel SVM), which
// is bit-identical to the interpreted base, then through the softmax.
// The interpreted bases are kept as what MarshalBinary serialises.
//
// Determinism: base learners train sequentially in canonical name order
// (nb, rf, svm -- the Bases config is sorted before use), fold
// assignment is a pure function of (Seed, rows), and the meta fit is
// fixed-iteration full-batch gradient descent from zero weights. The
// same config on the same dataset produces a bit-identical model at any
// worker count, and permuting the configured base order cannot change a
// single output bit.
package ensemble

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/ml/bayes"
	"repro/internal/ml/compile"
	"repro/internal/ml/eval"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Base-learner names accepted in Config.Bases.
const (
	BaseBayes  = "nb"
	BaseForest = "rf"
	BaseSVM    = "svm"
)

// Config holds stacked-ensemble training options.
type Config struct {
	// Bases names the base learners to stack (any subset of nb, rf,
	// svm; default all three). Order is irrelevant: the trainer sorts
	// the set canonically, so permuted configs are bit-identical.
	Bases []string

	// Folds is the cross-validation fold count used to obtain unbiased
	// (out-of-fold) base posteriors for the meta fit (default 3).
	Folds int

	// Seed drives fold assignment and is forwarded to the base
	// learners' own seeds.
	Seed uint64

	// SVM and Forest tune those base learners; the zero values take
	// svm.PaperConfig and a 60-tree forest. Bayes has no knobs.
	SVM    svm.Config
	Forest forest.Config

	// Span, when set, receives a "stack" child span covering the fit.
	Span *obs.Span
}

func (c Config) withDefaults() Config {
	if len(c.Bases) == 0 {
		c.Bases = []string{BaseBayes, BaseForest, BaseSVM}
	}
	if c.Folds <= 0 {
		c.Folds = 3
	}
	if c.SVM.Kernel == nil {
		sc := svm.PaperConfig()
		sc.Seed = c.Seed
		c.SVM = sc
	}
	if !c.SVM.Probability {
		// The meta features are posteriors; an uncalibrated SVM has none.
		c.SVM.Probability = true
	}
	if c.Forest.Trees <= 0 {
		c.Forest = forest.Config{Trees: 60, Seed: c.Seed}
	}
	return c
}

// canonicalBases validates and sorts the base set; duplicates and
// unknown names are rejected.
func canonicalBases(names []string) ([]string, error) {
	seen := map[string]bool{}
	out := make([]string, 0, len(names))
	for _, n := range names {
		switch n {
		case BaseBayes, BaseForest, BaseSVM:
		default:
			return nil, fmt.Errorf("ensemble: unknown base learner %q", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("ensemble: base learner %q listed twice", n)
		}
		seen[n] = true
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// Model is a trained stacked ensemble: the base learners (in canonical
// name order) plus the softmax meta-learner over their concatenated
// posteriors. It satisfies eval.ProbClassifier and is safe for any
// number of concurrent predictions.
type Model struct {
	classes  []string
	features int
	baseName []string
	// bases are the interpreted base learners: what MarshalBinary
	// serialises. No prediction runs through them.
	bases []eval.ProbClassifier
	// compiled[b] is bases[b] lowered by internal/ml/compile; every
	// prediction runs through these.
	compiled []compile.Model
	// meta holds the softmax weights: classes x (len(bases)*classes + 1),
	// the final column being the bias.
	meta    [][]float64
	scratch *sync.Pool // of *stackScratch
}

// stackScratch carries the per-row working memory of one prediction: a
// compiled scratch per base, the concatenated base posteriors the
// meta-learner reads, and the posterior it writes.
type stackScratch struct {
	base []*compile.Scratch
	row  []float64
	out  []float64
}

// compileBase lowers one base learner and checks it against the stack it
// belongs to: a base that shares the stack's class vocabulary and fits
// its feature width can be scored on any row the stack accepts, and its
// posterior fills exactly its slot of the meta row.
func compileBase(name string, base eval.ProbClassifier, classes []string, features int) (compile.Model, error) {
	cm, err := compile.Compile(base)
	if err != nil {
		return nil, fmt.Errorf("base %s: %w", name, err)
	}
	if !cm.Fits(features) {
		return nil, fmt.Errorf("base %s does not fit the stack's %d features", name, features)
	}
	if !slices.Equal(base.Classes(), classes) {
		return nil, fmt.Errorf("base %s disagrees with the stack's %d-class vocabulary (has %d classes)",
			name, len(classes), len(base.Classes()))
	}
	return cm, nil
}

// newModel assembles a stack from its parts, trained or restored,
// compiling every base once.
func newModel(classes []string, features int, names []string, bases []eval.ProbClassifier, meta [][]float64) (*Model, error) {
	compiled := make([]compile.Model, len(bases))
	for b, base := range bases {
		cm, err := compileBase(names[b], base, classes, features)
		if err != nil {
			return nil, fmt.Errorf("ensemble: %w", err)
		}
		compiled[b] = cm
	}
	nc := len(classes)
	return &Model{
		classes:  classes,
		features: features,
		baseName: names,
		bases:    bases,
		compiled: compiled,
		meta:     meta,
		scratch: &sync.Pool{New: func() any {
			s := &stackScratch{
				base: make([]*compile.Scratch, len(compiled)),
				row:  make([]float64, len(compiled)*nc),
				out:  make([]float64, nc),
			}
			for b, cm := range compiled {
				s.base[b] = cm.NewScratch()
			}
			return s
		}},
	}, nil
}

// Train fits the stacked ensemble on d.
func Train(d *dataset.Dataset, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	sp := cfg.Span.Child("stack")
	defer sp.End()
	bases, err := canonicalBases(cfg.Bases)
	if err != nil {
		return nil, err
	}
	if d.Len() < cfg.Folds {
		return nil, fmt.Errorf("ensemble: %d rows cannot fill %d folds", d.Len(), cfg.Folds)
	}
	if d.NumClasses() < 2 {
		return nil, fmt.Errorf("ensemble: need at least 2 classes, have %d", d.NumClasses())
	}
	sp.SetAttr("rows", d.Len())
	sp.SetAttr("bases", len(bases))

	// Out-of-fold posteriors: for each fold, train every base on the
	// complement and score the held-out rows (through the fold base's
	// compiled form, like every other row the stack scores), so the
	// meta-learner never sees a posterior a base produced for its own
	// training row. A fold's training part may miss a rare class
	// entirely; the bases cope with an absent class, and Subset keeps the
	// full vocabulary, so the posterior still fills its whole slot.
	nc := d.NumClasses()
	width := len(bases) * nc
	oof := sp.Child("stack.oof")
	z := make([][]float64, d.Len())
	for i := range z {
		z[i] = make([]float64, width)
	}
	folds := eval.StratifiedFolds(d, cfg.Folds, cfg.Seed)
	for f := 0; f < cfg.Folds; f++ {
		var trainIdx, testIdx []int
		for i, fi := range folds {
			if fi == f {
				testIdx = append(testIdx, i)
			} else {
				trainIdx = append(trainIdx, i)
			}
		}
		if len(testIdx) == 0 {
			continue
		}
		part := d.Subset(trainIdx)
		for b, name := range bases {
			m, err := trainBase(name, part, cfg)
			if err != nil {
				return nil, fmt.Errorf("ensemble: fold %d base %s: %w", f, name, err)
			}
			cm, err := compileBase(name, m, d.ClassNames, d.NumFeatures())
			if err != nil {
				return nil, fmt.Errorf("ensemble: fold %d %w", f, err)
			}
			// Rows score independently, each into its own slot of z.
			err = parallel.Blocks(0, len(testIdx), scoreBlock, func(lo, hi int) error {
				s := cm.NewScratch()
				for _, i := range testIdx[lo:hi] {
					_, probs := cm.PredictProb(d.X[i], s)
					copy(z[i][b*nc:(b+1)*nc], probs)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("ensemble: fold %d base %s: %w", f, name, err)
			}
		}
	}
	oof.End()

	msp := sp.Child("stack.meta")
	meta, err := fitSoftmax(z, d.Y, nc)
	msp.End()
	if err != nil {
		return nil, err
	}

	// Final bases retrain on the full dataset (the standard stacking
	// recipe: CV posteriors shape the meta weights, full-data bases
	// serve).
	fsp := sp.Child("stack.full")
	defer fsp.End()
	full := make([]eval.ProbClassifier, len(bases))
	for b, name := range bases {
		m, err := trainBase(name, d, cfg)
		if err != nil {
			return nil, fmt.Errorf("ensemble: base %s: %w", name, err)
		}
		full[b] = m
	}
	return newModel(append([]string(nil), d.ClassNames...), d.NumFeatures(), bases, full, meta)
}

// trainBase fits one named base learner.
func trainBase(name string, d *dataset.Dataset, cfg Config) (eval.ProbClassifier, error) {
	switch name {
	case BaseBayes:
		return bayes.Train(d)
	case BaseForest:
		fc := cfg.Forest
		fc.Seed = cfg.Seed
		return forest.TrainClassifier(d, fc)
	case BaseSVM:
		sc := cfg.SVM
		sc.Seed = cfg.Seed
		return svm.Train(d, sc)
	}
	return nil, fmt.Errorf("ensemble: unknown base learner %q", name)
}

// The softmax meta-learner's full-batch gradient descent: iteration
// budget, step size and L2 penalty.
const (
	metaIters = 300
	metaRate  = 0.5
	metaL2    = 1e-3
)

// scoreBlock is how many rows one parallel task scores: the out-of-fold
// base posteriors and the meta fit's softmax pass.
const scoreBlock = 128

// fitSoftmax trains the multinomial-logistic meta-learner by
// fixed-iteration full-batch gradient descent from zero weights:
// deterministic, and convex so the fixed budget lands in a stable
// neighbourhood.
//
// Each iteration runs in two parallel passes on the pool's default
// worker count. The first scores blocks of rows: a row's softmax reads
// only the weights, so its delta (posterior minus one-hot) lands in its
// own slot of a classes x n matrix. The second gives each class its own
// worker, which sums that class's gradient entries down the columns of
// z, held transposed so a column is contiguous, four columns per trip
// in registers, each over the rows in index order -- the exact sequence
// of adds the serial loop made into each entry -- and then takes the
// class's step. No sum is split or reordered, so the weights are
// bit-identical at any worker count.
func fitSoftmax(z [][]float64, y []int, nc int) ([][]float64, error) {
	if len(z) == 0 {
		return nil, fmt.Errorf("ensemble: no meta-training rows")
	}
	n, width := len(z), len(z[0])
	w := make([][]float64, nc)
	for c := range w {
		w[c] = make([]float64, width+1)
	}
	zt := make([]float64, width*n)
	for i, row := range z {
		for j, v := range row {
			zt[j*n+i] = v
		}
	}
	delta := make([]float64, nc*n)
	probs := make([]float64, (n+scoreBlock-1)/scoreBlock*nc) // one posterior per block
	for it := 0; it < metaIters; it++ {
		err := parallel.Blocks(0, n, scoreBlock, func(lo, hi int) error {
			probs := probs[lo/scoreBlock*nc : (lo/scoreBlock+1)*nc]
			for i := lo; i < hi; i++ {
				softmaxInto(w, z[i], probs)
				for c, p := range probs {
					if c == y[i] {
						p -= 1
					}
					delta[c*n+i] = p
				}
			}
			return nil
		})
		if err == nil {
			err = parallel.ForEach(0, nc, func(c int) error {
				step(w[c], delta[c*n:(c+1)*n], zt)
				return nil
			})
		}
		if err != nil {
			return nil, fmt.Errorf("ensemble: meta fit: %w", err)
		}
	}
	return w, nil
}

// step takes one class's gradient step: wc holds its weights (bias
// last), dc its delta on every row, zt the meta rows column-major.
// Every gradient entry starts at zero and adds dc[i]*z[i][j] for i in
// order, four entries in flight.
func step(wc, dc, zt []float64) {
	n, width := len(dc), len(wc)-1
	update := func(j int, g float64) {
		l2 := metaL2 * wc[j]
		if j == width {
			l2 = 0 // bias is unregularized
		}
		wc[j] -= metaRate * (g/float64(n) + l2)
	}
	j := 0
	for ; j+4 <= width; j += 4 {
		z0, z1, z2, z3 := zt[j*n:(j+1)*n], zt[(j+1)*n:(j+2)*n], zt[(j+2)*n:(j+3)*n], zt[(j+3)*n:(j+4)*n]
		var g0, g1, g2, g3 float64
		for i, d := range dc {
			g0 += d * z0[i]
			g1 += d * z1[i]
			g2 += d * z2[i]
			g3 += d * z3[i]
		}
		update(j, g0)
		update(j+1, g1)
		update(j+2, g2)
		update(j+3, g3)
	}
	for ; j < width; j++ {
		zj := zt[j*n : (j+1)*n]
		var g float64
		for i, d := range dc {
			g += d * zj[i]
		}
		update(j, g)
	}
	var g float64
	for _, d := range dc {
		g += d
	}
	update(width, g)
}

// softmaxInto evaluates the meta-learner on one posterior row: the
// training fit's rows and every stacked prediction. A class score is a
// serial add chain, bias first and then the row's columns in order, so
// four classes run per trip as four independent chains; the trailing
// classes % 4 run one at a time.
func softmaxInto(w [][]float64, row []float64, out []float64) {
	width := len(row)
	c := 0
	for ; c+4 <= len(w); c += 4 {
		w0, w1, w2, w3 := w[c][:width+1], w[c+1][:width+1], w[c+2][:width+1], w[c+3][:width+1]
		s0, s1, s2, s3 := w0[width], w1[width], w2[width], w3[width]
		for j, v := range row {
			s0 += w0[j] * v
			s1 += w1[j] * v
			s2 += w2[j] * v
			s3 += w3[j] * v
		}
		out[c], out[c+1], out[c+2], out[c+3] = s0, s1, s2, s3
	}
	for ; c < len(w); c++ {
		wc := w[c][:width+1]
		s := wc[width]
		for j, v := range row {
			s += wc[j] * v
		}
		out[c] = s
	}
	maxScore := math.Inf(-1)
	for _, s := range out[:len(w)] {
		if s > maxScore {
			maxScore = s
		}
	}
	var sum float64
	for c := range out {
		out[c] = math.Exp(out[c] - maxScore)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

// Classes returns the class vocabulary.
func (m *Model) Classes() []string { return m.classes }

// Bases returns the canonical base-learner names.
func (m *Model) Bases() []string { return append([]string(nil), m.baseName...) }

// NumFeatures returns the trained feature width.
func (m *Model) NumFeatures() int { return m.features }

// score runs x through every compiled base in canonical order, then the
// meta-learner, leaving the posterior in s.out; it returns the winning
// class and allocates nothing.
func (m *Model) score(x []float64, s *stackScratch) int {
	nc := len(m.classes)
	for b, cm := range m.compiled {
		_, probs := cm.PredictProb(x, s.base[b])
		copy(s.row[b*nc:(b+1)*nc], probs)
	}
	softmaxInto(m.meta, s.row, s.out)
	best := 0
	for c := 1; c < nc; c++ {
		if s.out[c] > s.out[best] {
			best = c
		}
	}
	return best
}

// PredictProb returns the winning class index and the meta-learner's
// posterior vector (satisfies eval.ProbClassifier). The returned slice
// is caller-owned: the call's one allocation.
func (m *Model) PredictProb(x []float64) (int, []float64) {
	s := m.scratch.Get().(*stackScratch)
	cls := m.score(x, s)
	probs := append([]float64(nil), s.out...)
	m.scratch.Put(s)
	return cls, probs
}

// Predict returns the plain predicted class index, the argmax of
// PredictProb's posterior, without allocating.
func (m *Model) Predict(x []float64) int {
	s := m.scratch.Get().(*stackScratch)
	cls := m.score(x, s)
	m.scratch.Put(s)
	return cls
}
