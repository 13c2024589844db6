// Package compile lowers trained classifiers into flat, cache-friendly
// serving forms that classify a feature row with zero heap allocations.
// What it owns is the layout:
//
//   - random forests become one contiguous breadth-first node array with
//     a branch-minimal descent (children of every split occupy adjacent
//     slots, so the walk is an add of the comparison result);
//   - SVMs become a contiguous row-major matrix of the support vectors
//     the one-vs-one pairs share, each kernel value computed once per
//     row, inline (no interface dispatch), and pair machines stored
//     longest window first. A float64 sum is a serial add chain, so
//     within a row four support vectors' feature sums and four pair
//     machines' decision sums run side by side, and SVM.PredictProbBlock
//     runs the same sums for a block of BlockRows rows in one pass over
//     the model; every sum still adds its own terms in the interpreted
//     order, which is all parity asks;
//   - Gaussian NB becomes precomputed log-space lookup tables, removing
//     every math.Log from the predict path.
//
// The rule that turns a walk into a posterior is not the layout's: each
// family owns it, and both engines call the same function, each with its
// own buffers — svm.PairProb and svm.Couple, bayes.Posterior, forest.Shares
// and forest.Majority. The interpreted predictors stay the independent
// reference for the layout, and the contract is absolute bit parity: a
// compiled walk performs the same floating-point operations in the same
// order as the interpreted one, so predicted classes AND posterior
// vectors are byte-identical — the golden corpus, the metamorphic suite,
// and the HTTP parity tests all hold unchanged when serving switches to
// the compiled form.
//
// Compile validates model structure up front (index bounds, tree
// acyclicity, matrix shapes, parameters that keep a posterior a number)
// and returns an error instead of lowering a malformed model; callers
// reject the model. It is the repo's one structural validator for model
// snapshots: hostile or truncated ones — which the persistence fuzzers
// feed the loader — fail here, at load, instead of panicking, spinning
// or answering NaN inside a serving call.
package compile

import (
	"fmt"
	"math"

	"repro/internal/ml/bayes"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
)

// Model is a compiled classifier. Predict and PredictProb perform zero
// heap allocations; the scratch carries all per-request working memory
// and the posterior slice returned by PredictProb is owned by the
// scratch (valid until its next use). A scratch must not be shared by
// concurrent calls; the compiled model itself is immutable and safe for
// any number of goroutines.
type Model interface {
	// Classes returns the class vocabulary (aliases model storage).
	Classes() []string
	// NewScratch allocates a scratch sized for this model.
	NewScratch() *Scratch
	// Fits reports whether rows of p features can be scored without
	// indexing past the row or the model's own tables.
	Fits(p int) bool
	// Predict returns the plain predicted class index (majority vote /
	// max posterior), bit-identical to the interpreted model's Predict.
	Predict(row []float64, s *Scratch) int
	// PredictProb returns the winning class and the posterior vector,
	// bit-identical to the interpreted model's PredictProb. The slice
	// aliases scratch memory.
	PredictProb(row []float64, s *Scratch) (int, []float64)
}

// Scratch holds every per-request buffer a compiled model needs. One
// scratch serves any number of sequential rows; pool them (or keep one
// per worker) for concurrent serving.
type Scratch struct {
	votes []int     // RF tree votes / SVM pair votes, len k
	probs []float64 // posterior output buffer, len k
	lls   []float64 // NB per-class log likelihoods, len k
	sub   []float64 // SVM pairwise probability matrix, ka*ka (active-class space)
	p     []float64 // coupling posterior, len ka
	q     []float64 // coupling quadratic form, ka*ka
	qp    []float64 // coupling Q*p product, len ka
	kv    []float64 // SVM per-row kernel values, one per unique support vector
	dec   []float64 // SVM per-row decision values, one per pair machine
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Compile lowers a trained model into its compiled serving form. It
// accepts the three classifier families the paper evaluates; any other
// type (or a structurally invalid model) returns an error.
func Compile(model any) (Model, error) {
	switch m := model.(type) {
	case *forest.Classifier:
		return CompileForest(m.Spec())
	case *svm.Model:
		return CompileSVM(m.Spec())
	case *bayes.Model:
		return CompileBayes(m.Spec())
	default:
		return nil, fmt.Errorf("compile: no compiled form for model type %T", model)
	}
}
