package svm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Config holds SVM training options. The paper's settings are an RBF
// kernel with gamma = 0.1 and C = 1000 on standardized features.
type Config struct {
	Kernel Kernel
	C      float64

	// MaxIter caps SMO iterations per binary problem (0 = auto).
	MaxIter int

	// Probability enables Platt calibration + pairwise coupling, the
	// sigmoid fitted on decision values from probabilityCV-fold
	// cross-validation.
	Probability bool

	// Workers bounds the number of binary problems trained concurrently
	// (default: GOMAXPROCS).
	Workers int

	// Seed drives the CV fold assignment for probability calibration.
	Seed uint64

	// ClassWeights scales the per-class cost: C_i = C * ClassWeights[name]
	// (absent classes weigh 1). The paper suggests class weighting to
	// counter mixture-share-driven misclassification (VASP/NAMD).
	ClassWeights map[string]float64

	// Span, when set, receives an "svm.pairs" child span covering the
	// one-vs-one pair training; nil is a no-op.
	Span *obs.Span
}

// probabilityCV is the number of cross-validation folds that produce the
// unbiased decision values the Platt sigmoid is fitted on.
const probabilityCV = 3

// weightFor returns the configured weight of a class (default 1).
func (c Config) weightFor(name string) float64 {
	if w, ok := c.ClassWeights[name]; ok && w > 0 {
		return w
	}
	return 1
}

// PaperConfig returns the paper's SVM configuration (RBF, gamma=0.1,
// C=1000, probability outputs on).
func PaperConfig() Config {
	return Config{Kernel: RBF{Gamma: 0.1}, C: 1000, Probability: true}
}

// Model is a trained one-vs-one multiclass SVM: its Spec plus the
// Kernel the interpreted predictors evaluate (Spec.Kernel by value).
type Model struct {
	spec   Spec
	kernel Kernel
}

// Train fits a one-vs-one SVM on the dataset. Classes with no training
// rows are kept in the vocabulary but receive no votes. A NaN C, or an
// RBF gamma that is not finite and positive, is refused before any pair
// trains; C <= 0 means 1.
func Train(d *dataset.Dataset, cfg Config) (*Model, error) {
	return train(d, cfg, smoCacheBytes, smoCacheBytes)
}

// checkTrainable refuses a C or a kernel no solve can train on: a NaN C
// leaves every machine without support vectors, and an RBF gamma that is
// NaN, infinite or not positive trains a model CompileSVM refuses.
func checkTrainable(kernel Kernel, c float64) error {
	if math.IsNaN(c) {
		return fmt.Errorf("svm: C is NaN")
	}
	if rbf, ok := kernel.(RBF); ok && !(rbf.Gamma > 0 && !math.IsInf(rbf.Gamma, 1)) {
		return fmt.Errorf("svm: RBF Gamma is %v, want finite and positive", rbf.Gamma)
	}
	return nil
}

// train is Train with the byte budgets of each pair's row cache and of
// the model's shared within-class rows.
func train(d *dataset.Dataset, cfg Config, pairBytes, classBytes int) (*Model, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if cfg.Kernel == nil {
		cfg.Kernel = RBF{Gamma: 0.1}
	}
	if err := checkTrainable(cfg.Kernel, cfg.C); err != nil {
		return nil, err
	}
	if cfg.C <= 0 {
		cfg.C = 1
	}

	byClass := make([][]int, d.NumClasses())
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	type pairJob struct{ i, j int }
	var jobs []pairJob
	for i := 0; i < d.NumClasses(); i++ {
		for j := i + 1; j < d.NumClasses(); j++ {
			if len(byClass[i]) > 0 && len(byClass[j]) > 0 {
				jobs = append(jobs, pairJob{i, j})
			}
		}
	}

	psp := cfg.Span.Child("svm.pairs")
	psp.SetAttr("pairs", len(jobs))
	cfg.Span = nil // keep trained models from retaining the trace tree
	model := &Model{kernel: cfg.Kernel, spec: Spec{
		Classes: d.ClassNames, Features: d.NumFeatures(), Kernel: describeKernel(cfg.Kernel),
	}}
	// Pairs are handed out largest first, so the pool does not end with
	// one worker alone on the biggest problem. Each binary problem is
	// seeded by its pair index and lands in that slot, so the trained
	// machines are identical at any worker count and in any order.
	size := func(job pairJob) int { return len(byClass[job.i]) + len(byClass[job.j]) }
	order := identity(len(jobs))
	sort.SliceStable(order, func(a, b int) bool { return size(jobs[order[a]]) > size(jobs[order[b]]) })
	rows := newClassRows(d.X, d.Y, byClass, cfg.Kernel, classBytes)
	pairs := make([]PairSpec, len(jobs))
	err := parallel.ForEach(cfg.Workers, len(jobs), func(k int) error {
		idx := order[k]
		job := jobs[idx]
		x, y := pairData(d, byClass[job.i], byClass[job.j])
		wPos := cfg.weightFor(d.ClassNames[job.i])
		wNeg := cfg.weightFor(d.ClassNames[job.j])
		p := trainBinary(rows.pairCache(job.i, job.j, pairBytes), x, y, wPos, wNeg, cfg, uint64(idx))
		p.I, p.J = job.i, job.j
		pairs[idx] = p
		return nil
	})
	psp.End()
	if err != nil {
		return nil, err
	}
	model.spec.Pairs = pairs
	return model, nil
}

// pairData assembles the two-class subproblem: +1 for class i, -1 for j.
func pairData(d *dataset.Dataset, iIdx, jIdx []int) ([][]float64, []float64) {
	n := len(iIdx) + len(jIdx)
	x := make([][]float64, 0, n)
	y := make([]float64, 0, n)
	for _, t := range iIdx {
		x = append(x, d.X[t])
		y = append(y, 1)
	}
	for _, t := range jIdx {
		x = append(x, d.X[t])
		y = append(y, -1)
	}
	return x, y
}

// weightedC builds the per-sample box constraints for a labeled pair.
func weightedC(y []float64, c, wPos, wNeg float64) []float64 {
	cv := make([]float64, len(y))
	for i, yi := range y {
		if yi > 0 {
			cv[i] = c * wPos
		} else {
			cv[i] = c * wNeg
		}
	}
	return cv
}

// trainBinary solves one pair over k, the kernel cache of its rows x,
// optionally with probability calibration on cross-validated decision
// values. The full problem and every fold problem are ascending views of
// k, and the decision values come from its cached support-vector rows, so
// while the budget lasts a row's cross segment is computed once per pair
// (and, through classRows, its within-class segment once per model).
func trainBinary(k *rowCache, x [][]float64, y []float64, wPos, wNeg float64, cfg Config, seed uint64) PairSpec {
	n := len(x)
	all := identity(n)
	res := solveSMOGeneral(k, all, y, nil, weightedC(y, cfg.C, wPos, wNeg), cfg.MaxIter)
	m := newPair(x, y, res)
	if !cfg.Probability {
		return m
	}

	dec := make([]float64, n)
	if n < 2*probabilityCV {
		decisions(k, all, y, res, all, dec)
	} else {
		r := rng.New(cfg.Seed ^ 0x5eed).Split(seed)
		fold := make([]int, n)
		perm := r.Perm(n)
		for i, p := range perm {
			fold[p] = i % probabilityCV
		}
		for f := 0; f < probabilityCV; f++ {
			var in, out []int
			var ty []float64
			for i := range x {
				if fold[i] != f {
					in = append(in, i)
					ty = append(ty, y[i])
				} else {
					out = append(out, i)
				}
			}
			if !hasBothClasses(ty) {
				// Degenerate fold: fall back to the full model.
				decisions(k, all, y, res, out, dec)
				continue
			}
			sub := solveSMOGeneral(k, in, ty, nil, weightedC(ty, cfg.C, wPos, wNeg), cfg.MaxIter)
			decisions(k, in, ty, sub, out, dec)
		}
	}
	m.A, m.B = fitSigmoid(dec, y)
	m.HasAB = true
	return m
}

func hasBothClasses(y []float64) bool {
	var pos, neg bool
	for _, v := range y {
		if v > 0 {
			pos = true
		} else {
			neg = true
		}
	}
	return pos && neg
}

// Classes returns the class vocabulary.
func (m *Model) Classes() []string { return m.spec.Classes }

// NumSupportVectors returns the total SV count across pair machines.
func (m *Model) NumSupportVectors() int {
	n := 0
	for _, p := range m.spec.Pairs {
		n += len(p.SV)
	}
	return n
}

// Predict returns the index of the winning class by one-vs-one voting,
// breaking ties toward the lower class index (LIBSVM behaviour).
func (m *Model) Predict(x []float64) int {
	votes := make([]int, len(m.spec.Classes))
	for i := range m.spec.Pairs {
		p := &m.spec.Pairs[i]
		if p.decision(m.kernel, x) > 0 {
			votes[p.I]++
		} else {
			votes[p.J]++
		}
	}
	best := 0
	for c := 1; c < len(votes); c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

// PredictProb returns the posterior class probabilities via pairwise
// coupling and the index of the most probable class. A model trained
// without Probability has no Platt sigmoids, and PairProb falls back to
// a steep logistic on each pair's margin.
func (m *Model) PredictProb(x []float64) (int, []float64) {
	k := len(m.spec.Classes)
	// Couple only the classes that trained in some pair, ascending.
	seen := make([]bool, k)
	for i := range m.spec.Pairs {
		seen[m.spec.Pairs[i].I], seen[m.spec.Pairs[i].J] = true, true
	}
	activeAt := make([]int, k)
	var active []int
	for c, ok := range seen {
		if ok {
			activeAt[c] = len(active)
			active = append(active, c)
		}
	}
	ka := len(active)
	r := make([]float64, ka*ka)
	for i := range m.spec.Pairs {
		p := &m.spec.Pairs[i]
		pr := PairProb(p.decision(m.kernel, x), p.A, p.B, p.HasAB)
		r[activeAt[p.I]*ka+activeAt[p.J]] = pr
		r[activeAt[p.J]*ka+activeAt[p.I]] = 1 - pr
	}
	probs := make([]float64, k)
	best := Couple(r, active, probs, make([]float64, ka), make([]float64, ka*ka), make([]float64, ka))
	return best, probs
}
