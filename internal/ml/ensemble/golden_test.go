package ensemble

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ml/eval"
	"repro/internal/testkit"
)

// baseSubsets is every non-empty subset of the three base learners, in
// canonical order.
var baseSubsets = [][]string{
	{"nb"}, {"rf"}, {"svm"},
	{"nb", "rf"}, {"nb", "svm"}, {"rf", "svm"},
	{"nb", "rf", "svm"},
}

// hostileRows are feature rows no training set contains: non-finite and
// near-overflow values in every position pattern the kernels branch on.
func hostileRows(p int) [][]float64 {
	fill := func(v float64) []float64 {
		row := make([]float64, p)
		for i := range row {
			row[i] = v
		}
		return row
	}
	mixed := fill(0)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308} {
		mixed[i%p] = v
	}
	oneNaN := fill(0.5)
	oneNaN[p-1] = math.NaN()
	return [][]float64{
		fill(0), fill(math.NaN()), fill(math.Inf(1)), fill(math.Inf(-1)),
		fill(1e308), fill(-1e308), mixed, oneNaN,
	}
}

// TestGoldenStack pins the small stack's outputs bit for bit, for every
// base subset: the meta weights (which the out-of-fold base posteriors
// shape), the posterior of every training row, and the posterior of the
// hostile rows. The file was generated before the stack moved onto the
// compiled base kernels and must never need regenerating for an engine
// change: the compiled forms are bit-identical to the interpreted ones.
func TestGoldenStack(t *testing.T) {
	d := synthSmall(t)
	hostile := hostileRows(d.NumFeatures())
	var b strings.Builder
	for _, bases := range baseSubsets {
		m := trainSmall(t, Config{Seed: 7, Bases: bases})
		testkit.Section(&b, "stack "+strings.Join(bases, "+")+" / synth seed 11, stack seed 7")
		fmt.Fprintf(&b, "train_accuracy = %s\n", testkit.Float(eval.VoteAccuracy(m, d)))
		fmt.Fprintf(&b, "meta       = %s\n", testkit.HashFloats(m.meta...))
		fmt.Fprintf(&b, "posteriors = %s\n", digest(t, m, d))
		rows := make([][]float64, len(hostile))
		classes := make([]int, len(hostile))
		for i, x := range hostile {
			classes[i], rows[i] = m.PredictProb(x)
		}
		fmt.Fprintf(&b, "hostile    = %s / %s\n", testkit.HashFloats(rows...), testkit.HashInts(classes))
	}
	// The many-class case: 7 classes fill one four-class trip of the
	// meta-learner's softmax and leave a remainder of 3, and the unequal
	// class sizes give SVM pairs of every length mod 4 in the full fit
	// and in each fold.
	d7 := synthUneven(t)
	m := trainOn(t, d7, Config{Seed: 7})
	testkit.Section(&b, "stack nb+rf+svm / 7 uneven classes, synth seed 13, stack seed 7")
	fmt.Fprintf(&b, "train_accuracy = %s\n", testkit.Float(eval.VoteAccuracy(m, d7)))
	fmt.Fprintf(&b, "meta       = %s\n", testkit.HashFloats(m.meta...))
	fmt.Fprintf(&b, "posteriors = %s\n", digest(t, m, d7))
	hostile7 := hostileRows(d7.NumFeatures())
	rows := make([][]float64, len(hostile7))
	classes := make([]int, len(hostile7))
	for i, x := range hostile7 {
		classes[i], rows[i] = m.PredictProb(x)
	}
	fmt.Fprintf(&b, "hostile    = %s / %s\n", testkit.HashFloats(rows...), testkit.HashInts(classes))
	testkit.GoldenString(t, "stack.golden", b.String())
}
