package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/ml/bayes"
	"repro/internal/ml/compile"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/eval"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Algorithm selects a classifier family.
type Algorithm string

// The three classifier families the paper evaluates, plus the stacked
// ensemble (NB + RF + SVM under a softmax meta-learner) the lifecycle
// loop trains as a challenger.
const (
	AlgoSVM    Algorithm = "svm"
	AlgoForest Algorithm = "rf"
	AlgoBayes  Algorithm = "nb"
	AlgoStack  Algorithm = "stack"
)

// ClassifierConfig configures JobClassifier training.
type ClassifierConfig struct {
	Algo   Algorithm
	SVM    svm.Config
	Forest forest.Config
	Stack  ensemble.Config

	// Span, when set, receives a "train.<algo>" child span covering the
	// fit (with model-internal sub-spans); nil is a no-op.
	Span *obs.Span
}

// PaperSVM returns the paper's SVM setup (RBF gamma=0.1, C=1000).
func PaperSVM(seed uint64) ClassifierConfig {
	cfg := svm.PaperConfig()
	cfg.Seed = seed
	return ClassifierConfig{Algo: AlgoSVM, SVM: cfg}
}

// PaperForest returns a randomForest-like setup.
func PaperForest(seed uint64) ClassifierConfig {
	return ClassifierConfig{Algo: AlgoForest, Forest: forest.Config{Trees: 200, Seed: seed}}
}

// JobClassifier is a trained application classifier with standardized
// features and probability outputs, the production artifact the paper
// proposes (SUPReMM summary in, application label + confidence out).
type JobClassifier struct {
	Algo     Algorithm
	Features []string

	model  eval.ProbClassifier
	scaler *stats.Scaler

	// compiled is the flat zero-allocation serving form (see
	// internal/ml/compile) of a forest, SVM or NB model, built by
	// newJobClassifier. It is nil only for the stack, which is not a
	// compile.Compile family: it serves through model, an interpreted
	// meta-learner that keeps its own compiled bases and scratch pool.
	compiled compile.Model
	scratch  sync.Pool // of *classifyScratch
	// blocks serves ClassifyRows on a compiled SVM, which scores rows a
	// block at a time; it has no New on every other family.
	blocks sync.Pool // of *blockScratch
}

// classifyScratch carries the per-request buffers of the compiled
// serving path: the scaled feature row plus the compiled model's own
// working memory.
type classifyScratch struct {
	row []float64
	cs  *compile.Scratch
}

// blockScratch is classifyScratch for a block of rows: the scaled rows
// plus the compiled SVM's block working memory.
type blockScratch struct {
	rows [compile.BlockRows][]float64
	bs   *compile.BlockScratch
}

// TrainJobClassifier standardizes a copy of the training features and fits
// the selected model. The input dataset is not mutated. A NaN or ±Inf
// feature value is refused before scaling, which would spread it over its
// whole column.
func TrainJobClassifier(train *dataset.Dataset, cfg ClassifierConfig) (*JobClassifier, error) {
	if train.Len() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	for i, row := range train.X {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: training row %d feature %q is %v", i, train.FeatureNames[j], v)
			}
		}
	}
	sp := cfg.Span.Child("train." + string(cfg.Algo))
	defer sp.End()
	sp.SetAttr("rows", train.Len())
	sp.SetAttr("classes", len(train.ClassNames))
	work := train.Subset(indexRange(train.Len())) // deep copy
	scaler := work.Standardize()
	var model eval.ProbClassifier
	var err error
	switch cfg.Algo {
	case AlgoSVM:
		cfg.SVM.Span = sp
		model, err = svm.Train(work, cfg.SVM)
	case AlgoForest:
		cfg.Forest.Span = sp
		model, err = forest.TrainClassifier(work, cfg.Forest)
	case AlgoBayes:
		model, err = bayes.Train(work)
	case AlgoStack:
		cfg.Stack.Span = sp
		model, err = ensemble.Train(work, cfg.Stack)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", cfg.Algo)
	}
	if err != nil {
		return nil, err
	}
	return newJobClassifier(cfg.Algo, train.FeatureNames, scaler, model)
}

// newJobClassifier is the one gate every classifier passes on its way
// to serving, trained or restored: it decides "fit to serve" once and
// picks the engine from the model family alone. A forest, SVM or NB
// model is lowered into its compiled form, and a model the compiler's
// structural validation rejects is an error here, never a slower
// classifier; the stack serves through the model itself, which compiled
// and validated its own bases when it was trained or restored
// (ensemble.Train, ensemble.UnmarshalBinary).
// Either way the scaler and the model must agree with the feature
// schema on the row width, so a served row can never index past a
// table.
func newJobClassifier(algo Algorithm, features []string, scaler *stats.Scaler, model eval.ProbClassifier) (*JobClassifier, error) {
	p := len(features)
	if len(scaler.Means) != p || len(scaler.Stds) != p {
		return nil, fmt.Errorf("core: scaler has %d means and %d stds for %d features",
			len(scaler.Means), len(scaler.Stds), p)
	}
	c := &JobClassifier{Algo: algo, Features: features, model: model, scaler: scaler}
	if stack, ok := model.(*ensemble.Model); ok {
		if stack.NumFeatures() != p {
			return nil, fmt.Errorf("core: stack was fit on %d features, schema has %d", stack.NumFeatures(), p)
		}
		return c, nil
	}
	cm, err := compile.Compile(model)
	if err != nil {
		return nil, fmt.Errorf("core: %s model is not fit to serve: %w", algo, err)
	}
	if !cm.Fits(p) {
		return nil, fmt.Errorf("core: %s model does not fit the %d-feature schema", algo, p)
	}
	c.compiled = cm
	c.scratch.New = func() any {
		return &classifyScratch{row: make([]float64, p), cs: cm.NewScratch()}
	}
	if sv, ok := cm.(*compile.SVM); ok {
		c.blocks.New = func() any {
			b := &blockScratch{bs: sv.NewBlockScratch()}
			flat := make([]float64, compile.BlockRows*p)
			for r := range b.rows {
				b.rows[r] = flat[r*p : (r+1)*p]
			}
			return b
		}
	}
	return c, nil
}

// IsCompiled reports whether the classifier serves through the compiled
// zero-allocation engine.
func (c *JobClassifier) IsCompiled() bool { return c.compiled != nil }

// FeatureNames and Serving make the classifier Servable behind a
// ModelManager.
func (c *JobClassifier) FeatureNames() []string { return c.Features }

func (c *JobClassifier) Serving() (algo string, compiled bool) {
	return string(c.Algo), c.IsCompiled()
}

// compiledScratch is the one door every served row passes: it checks x
// against the schema's width (a wrong-width row is a caller bug, named
// here instead of as an index fault inside a scaler or a tree walk) and,
// on a compiled family, returns a pooled scratch holding the scaled
// row. The stack gets nil and serves through its own model, whose bases
// are compiled inside internal/ml/ensemble.
func (c *JobClassifier) compiledScratch(x []float64) *classifyScratch {
	c.checkWidth(x)
	if c.compiled == nil {
		return nil
	}
	s := c.scratch.Get().(*classifyScratch)
	copy(s.row, x)
	c.scaler.Transform(s.row)
	return s
}

// checkWidth panics, naming both widths, on a row that is not
// schema-wide.
func (c *JobClassifier) checkWidth(x []float64) {
	if len(x) != len(c.Features) {
		panic(fmt.Sprintf("core: row has %d values, model expects %d", len(x), len(c.Features)))
	}
}

func indexRange(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Classes returns the class vocabulary.
func (c *JobClassifier) Classes() []string { return c.model.Classes() }

// PredictProb scales a raw feature row and returns the winning class index
// and the posterior vector (satisfies eval.ProbClassifier). The compiled
// and interpreted paths return byte-identical results; the returned
// slice is always caller-owned.
func (c *JobClassifier) PredictProb(x []float64) (int, []float64) {
	if s := c.compiledScratch(x); s != nil {
		cls, probs := c.compiled.PredictProb(s.row, s.cs)
		out := append([]float64(nil), probs...)
		c.scratch.Put(s)
		return cls, out
	}
	return c.PredictProbInterpreted(x)
}

// PredictProbInterpreted is PredictProb through the original
// pointer-walking model, bypassing the compiled engine. It exists as
// the parity reference: tests compare it bit-for-bit against the
// compiled path.
func (c *JobClassifier) PredictProbInterpreted(x []float64) (int, []float64) {
	row := append([]float64(nil), x...)
	c.scaler.Transform(row)
	return c.model.PredictProb(row)
}

// predictor is the plain (uncalibrated) prediction every model family
// provides: SVM one-vs-one voting, forest majority vote, NB max posterior.
type predictor interface {
	Predict(x []float64) int
}

// Predict scales a raw feature row and returns the plain predicted class
// index, bypassing probability calibration. Use this for accuracy;
// PredictProb/Classify for threshold analyses.
func (c *JobClassifier) Predict(x []float64) int {
	if s := c.compiledScratch(x); s != nil {
		cls := c.compiled.Predict(s.row, s.cs)
		c.scratch.Put(s)
		return cls
	}
	return c.PredictInterpreted(x)
}

// PredictInterpreted is Predict through the original model, bypassing
// the compiled engine (the tests' parity reference).
func (c *JobClassifier) PredictInterpreted(x []float64) int {
	row := append([]float64(nil), x...)
	c.scaler.Transform(row)
	if p, ok := c.model.(predictor); ok {
		return p.Predict(row)
	}
	cls, _ := c.model.PredictProb(row)
	return cls
}

// Classify applies a probability threshold: it returns the predicted label
// and its probability, with ok=false when the confidence falls below the
// threshold (the job is "not classified", as for the paper's
// Uncategorized/NA analysis). On the compiled path this is the serving
// hot call: the pooled scratch makes it allocation-free per row.
func (c *JobClassifier) Classify(x []float64, threshold float64) (label string, prob float64, ok bool) {
	cls, prob := c.top(x)
	return c.model.Classes()[cls], prob, prob >= threshold
}

// Verdict is one row's Classify answer.
type Verdict struct {
	Label string
	Prob  float64
	OK    bool // Prob >= the threshold
}

// ClassifyRows is Classify over every row, into out[:len(rows)]: the
// batch door. A compiled SVM scales compile.BlockRows rows at a time
// into a pooled block and scores each block in one pass over its
// support vectors, and the remainder row by row; every other family
// scores row by row. Each verdict is bit-identical to Classify on its
// row alone, and on the compiled families the call is allocation-free.
func (c *JobClassifier) ClassifyRows(rows [][]float64, threshold float64, out []Verdict) {
	classes := c.model.Classes()
	verdict := func(cls int, prob float64) Verdict {
		return Verdict{Label: classes[cls], Prob: prob, OK: prob >= threshold}
	}
	i := 0
	if sv, ok := c.compiled.(*compile.SVM); ok && len(rows) >= compile.BlockRows {
		b := c.blocks.Get().(*blockScratch)
		for ; i+compile.BlockRows <= len(rows); i += compile.BlockRows {
			for r, row := range b.rows {
				c.checkWidth(rows[i+r])
				copy(row, rows[i+r])
				c.scaler.Transform(row)
			}
			cls, probs := sv.PredictProbBlock(b.rows[:], b.bs)
			for r, k := range cls {
				out[i+r] = verdict(k, probs[r][k])
			}
		}
		c.blocks.Put(b)
	}
	for ; i < len(rows); i++ {
		out[i] = verdict(c.top(rows[i]))
	}
}

// top returns the winning class and its probability. On the compiled
// path it reads the one value out of the pooled scratch instead of
// copying the posterior out, as PredictProb must.
func (c *JobClassifier) top(x []float64) (cls int, prob float64) {
	if s := c.compiledScratch(x); s != nil {
		cls, probs := c.compiled.PredictProb(s.row, s.cs)
		prob = probs[cls]
		c.scratch.Put(s)
		return cls, prob
	}
	cls, probs := c.PredictProbInterpreted(x)
	return cls, probs[cls]
}

// OutOfRange names the features of raw row x whose standardized value
// float64 can no longer square (|z| > sqrt(MaxFloat64), or no number at
// all). Such a value drives every Gaussian log-likelihood to -Inf, so an
// NB or stack posterior comes out 0/0; a caller that has just seen a
// non-finite probability asks here which inputs to blame.
func (c *JobClassifier) OutOfRange(x []float64) []string {
	return outOfRange(c.scaler, c.Features, x)
}

// outOfRange names the features of raw row x whose standardized value
// has |z| > sqrt(MaxFloat64) or is no number at all.
func outOfRange(scaler *stats.Scaler, features []string, x []float64) []string {
	limit := math.Sqrt(math.MaxFloat64)
	var names []string
	for j, z := range scaler.Transform(append([]float64(nil), x...)) {
		if !(math.Abs(z) <= limit) {
			names = append(names, features[j])
		}
	}
	return names
}

// ClassifyInterpreted is Classify through the original model, bypassing
// the compiled engine (the tests' parity reference).
func (c *JobClassifier) ClassifyInterpreted(x []float64, threshold float64) (label string, prob float64, ok bool) {
	cls, probs := c.PredictProbInterpreted(x)
	label = c.model.Classes()[cls]
	prob = probs[cls]
	return label, prob, prob >= threshold
}

// Score evaluates the classifier over a raw (unscaled) dataset whose class
// vocabulary matches training; a dataset of rows alone (nil Y) scores
// with no ground truth, like eval.Score.
func (c *JobClassifier) Score(d *dataset.Dataset) []eval.Prediction {
	preds := make([]eval.Prediction, d.Len())
	for i := range preds {
		preds[i] = c.ScoreRow(d, i)
	}
	return preds
}

// ScoreRow is Score's body for row i alone, for callers that spread a
// dataset's rows over workers.
func (c *JobClassifier) ScoreRow(d *dataset.Dataset, i int) eval.Prediction {
	cls, prob := c.top(d.X[i])
	return eval.Prediction{True: eval.Truth(d, i), Pred: cls, MaxProb: prob}
}

// Accuracy is the plain (vote-based) test accuracy on a raw dataset.
func (c *JobClassifier) Accuracy(d *dataset.Dataset) float64 { return eval.VoteAccuracy(c, d) }

// Importance returns per-feature permutation importance. Only available
// for the random-forest algorithm (as the paper notes, the R e1071 SVM
// exposes no importance; randomForest does).
func (c *JobClassifier) Importance() ([]float64, error) {
	rf, ok := c.model.(*forest.Classifier)
	if !ok {
		return nil, fmt.Errorf("core: importance requires the rf algorithm")
	}
	imp := rf.Importance()
	if imp == nil {
		return nil, fmt.Errorf("core: importance unavailable on a restored model")
	}
	return imp, nil
}
