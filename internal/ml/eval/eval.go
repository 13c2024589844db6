// Package eval provides the evaluation machinery behind the paper's tables
// and figures: confusion matrices (Table 2), per-class accuracy summaries
// (Table 3), probability-threshold classification curves (Figures 1, 3, 4),
// the Equation-1 ROC-like comparison curve (Figure 2), and k-fold
// cross-validation.
package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/parallel"
)

// ProbClassifier is any classifier producing class posteriors; the SVM,
// random forest and naive Bayes models all satisfy it.
type ProbClassifier interface {
	PredictProb(x []float64) (int, []float64)
	Classes() []string
}

// Prediction is one scored test-set prediction.
type Prediction struct {
	True    int     // true class index (-1 when unknown, e.g. NA jobs)
	Pred    int     // predicted class index
	MaxProb float64 // probability of the predicted class
}

// Score runs the classifier over a dataset and collects predictions. The
// dataset's class vocabulary must match the classifier's; a dataset of
// rows alone (nil Y, as for the Uncategorized and NA job sets) scores
// with no ground truth.
func Score(c ProbClassifier, d *dataset.Dataset) []Prediction {
	out := make([]Prediction, d.Len())
	for i, row := range d.X {
		cls, probs := c.PredictProb(row)
		out[i] = Prediction{True: Truth(d, i), Pred: cls, MaxProb: probs[cls]}
	}
	return out
}

// Truth is row i's true class index, -1 when d carries no labels.
func Truth(d *dataset.Dataset, i int) int {
	if d.Y == nil {
		return -1
	}
	return d.Y[i]
}

// VoteAccuracy is the fraction of d's rows whose plain prediction (SVM
// one-vs-one vote, forest majority, NB or stack max posterior: no
// probability calibration) matches the label. d's class vocabulary must
// match the classifier's.
func VoteAccuracy(c interface{ Predict(x []float64) int }, d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	correct := 0
	for i, row := range d.X {
		if c.Predict(row) == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

// Accuracy returns the fraction of predictions whose Pred matches True.
func Accuracy(preds []Prediction) float64 {
	if len(preds) == 0 {
		return 0
	}
	correct := 0
	for _, p := range preds {
		if p.Pred == p.True {
			correct++
		}
	}
	return float64(correct) / float64(len(preds))
}

// ConfusionMatrix counts predictions by (true, predicted) class.
type ConfusionMatrix struct {
	Classes []string
	Counts  [][]int // [true][pred]
}

// confusionParallelMin is the prediction count below which the parallel
// tally is not worth the fan-out overhead.
const confusionParallelMin = 8192

// NewConfusionMatrix tallies predictions into a matrix, fanning the count
// accumulation out over all cores for large prediction sets. Each worker
// counts a contiguous chunk into its own matrix and the integer partials
// are merged, so the result is identical to the serial tally at any
// GOMAXPROCS.
func NewConfusionMatrix(classes []string, preds []Prediction) *ConfusionMatrix {
	m := &ConfusionMatrix{Classes: classes, Counts: make([][]int, len(classes))}
	for i := range m.Counts {
		m.Counts[i] = make([]int, len(classes))
	}
	w := parallel.Workers(0)
	if len(preds) < confusionParallelMin || w == 1 {
		tallyConfusion(m.Counts, preds)
		return m
	}
	chunk := (len(preds) + w - 1) / w
	nChunks := (len(preds) + chunk - 1) / chunk
	partials, _ := parallel.Map(w, nChunks, func(c int) ([][]int, error) {
		counts := make([][]int, len(classes))
		for i := range counts {
			counts[i] = make([]int, len(classes))
		}
		lo, hi := c*chunk, (c+1)*chunk
		if hi > len(preds) {
			hi = len(preds)
		}
		tallyConfusion(counts, preds[lo:hi])
		return counts, nil
	})
	for _, counts := range partials {
		for i, row := range counts {
			for j, n := range row {
				m.Counts[i][j] += n
			}
		}
	}
	return m
}

func tallyConfusion(counts [][]int, preds []Prediction) {
	for _, p := range preds {
		if p.True >= 0 {
			counts[p.True][p.Pred]++
		}
	}
}

// Accuracy returns the trace fraction.
func (m *ConfusionMatrix) Accuracy() float64 {
	diag, total := 0, 0
	for i, row := range m.Counts {
		for j, n := range row {
			total += n
			if i == j {
				diag += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(diag) / float64(total)
}

// ClassAccuracy returns per-class recall (the paper's "% correct").
func (m *ConfusionMatrix) ClassAccuracy() []float64 {
	out := make([]float64, len(m.Classes))
	for i, row := range m.Counts {
		total := 0
		for _, n := range row {
			total += n
		}
		if total > 0 {
			out[i] = float64(row[i]) / float64(total)
		}
	}
	return out
}

// RowTotals returns per-true-class prediction counts.
func (m *ConfusionMatrix) RowTotals() []int {
	out := make([]int, len(m.Classes))
	for i, row := range m.Counts {
		for _, n := range row {
			out[i] += n
		}
	}
	return out
}

// String renders the matrix in the paper's Table 2 style: one row per true
// class with its correct count in parentheses, followed by the non-zero
// off-diagonal entries.
func (m *ConfusionMatrix) String() string {
	var b strings.Builder
	for i, name := range m.Classes {
		fmt.Fprintf(&b, "%s (%d): ", name, m.Counts[i][i])
		var mis []string
		for j, n := range m.Counts[i] {
			if j != i && n > 0 {
				mis = append(mis, fmt.Sprintf("%s (%d)", m.Classes[j], n))
			}
		}
		sort.Strings(mis)
		b.WriteString(strings.Join(mis, ", "))
		b.WriteByte('\n')
	}
	return b.String()
}

// ThresholdPoint is one point of the paper's probability-threshold plots.
type ThresholdPoint struct {
	Threshold           float64
	Classified          float64 // fraction with MaxProb >= Threshold
	CorrectlyClassified float64 // fraction with MaxProb >= Threshold AND correct
}

// ThresholdCurve evaluates classified / correctly-classified fractions at
// each threshold (Figures 1, 3 and 4). For unlabeled predictions the
// CorrectlyClassified component is zero.
func ThresholdCurve(preds []Prediction, thresholds []float64) []ThresholdPoint {
	out := make([]ThresholdPoint, len(thresholds))
	n := float64(len(preds))
	for k, t := range thresholds {
		var cls, correct int
		for _, p := range preds {
			if p.MaxProb >= t {
				cls++
				if p.True >= 0 && p.Pred == p.True {
					correct++
				}
			}
		}
		out[k] = ThresholdPoint{Threshold: t}
		if n > 0 {
			out[k].Classified = float64(cls) / n
			out[k].CorrectlyClassified = float64(correct) / n
		}
	}
	return out
}

// DefaultThresholds returns 1.00, 0.95, ..., 0.05, the grid of Figure 2.
func DefaultThresholds() []float64 {
	var out []float64
	for t := 100; t >= 5; t -= 5 {
		out = append(out, float64(t)/100)
	}
	return out
}

// ROCPoint is one point of the paper's Equation 1 curve.
type ROCPoint struct {
	Threshold float64
	X         float64 // fraction of correct classifications passing t
	Y         float64 // fraction of incorrect classifications passing t
}

// ROCLike computes the paper's Equation 1: for each threshold t,
// x = |{passing t AND correct}| / N_correct and
// y = |{passing t AND incorrect}| / N_incorrect. A good classifier's curve
// hugs (x, y) = (1, 0): nearly all correct classifications survive high
// thresholds while incorrect ones are filtered out.
func ROCLike(preds []Prediction, thresholds []float64) []ROCPoint {
	var nCorrect, nIncorrect int
	for _, p := range preds {
		if p.Pred == p.True {
			nCorrect++
		} else {
			nIncorrect++
		}
	}
	out := make([]ROCPoint, len(thresholds))
	for k, t := range thresholds {
		var pc, pi int
		for _, p := range preds {
			if p.MaxProb < t {
				continue
			}
			if p.Pred == p.True {
				pc++
			} else {
				pi++
			}
		}
		out[k] = ROCPoint{Threshold: t}
		if nCorrect > 0 {
			out[k].X = float64(pc) / float64(nCorrect)
		}
		if nIncorrect > 0 {
			out[k].Y = float64(pi) / float64(nIncorrect)
		}
	}
	return out
}

// AUCLike integrates an ROCLike curve by the trapezoid rule over x,
// yielding a scalar for comparing classifiers (0 is ideal: no incorrect
// classifications pass any threshold; 1 is worst).
func AUCLike(points []ROCPoint) float64 {
	pts := append([]ROCPoint(nil), points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	var auc float64
	prevX, prevY := 0.0, 0.0
	for _, p := range pts {
		auc += (p.X - prevX) * (p.Y + prevY) / 2
		prevX, prevY = p.X, p.Y
	}
	auc += (1 - prevX) * (1 + prevY) / 2 // extend to x=1 at y=1
	return auc
}

// TrainFunc builds a classifier from a training set, for cross-validation.
type TrainFunc func(train *dataset.Dataset) (ProbClassifier, error)

// CrossValidate returns the mean accuracy over k stratified folds, at
// most workers of them trained and scored concurrently (<= 0 means
// GOMAXPROCS). Fold contents depend only on (d, k, seed) and the
// per-fold accuracies are reduced in fold order, so the mean is
// bit-identical to the serial loop at any worker count. trainFn must be
// safe to call from multiple goroutines.
func CrossValidate(d *dataset.Dataset, k int, seed uint64, workers int, trainFn TrainFunc) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("eval: need k >= 2 folds")
	}
	folds := StratifiedFolds(d, k, seed)
	accs, err := parallel.Map(workers, k, func(f int) (float64, error) {
		var trainIdx, testIdx []int
		for i, fi := range folds {
			if fi == f {
				testIdx = append(testIdx, i)
			} else {
				trainIdx = append(trainIdx, i)
			}
		}
		model, err := trainFn(d.Subset(trainIdx))
		if err != nil {
			return 0, err
		}
		return Accuracy(Score(model, d.Subset(testIdx))), nil
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, a := range accs {
		total += a
	}
	return total / float64(k), nil
}

// StratifiedFolds assigns each row a fold in [0, k), stratified by
// class: a pure function of (d.Y, k, seed), shared by cross-validation
// here and the stack's out-of-fold training.
func StratifiedFolds(d *dataset.Dataset, k int, seed uint64) []int {
	folds := make([]int, d.Len())
	byClass := make([][]int, d.NumClasses())
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	// Simple deterministic rotation keyed by seed: adequate stratification
	// without pulling in the rng package.
	offset := int(seed % uint64(k))
	for _, idx := range byClass {
		for j, i := range idx {
			folds[i] = (j + offset) % k
		}
	}
	return folds
}

// ConfusedPair is one directed misclassification flow.
type ConfusedPair struct {
	True, Pred string
	Count      int
	// Rate is Count divided by the true class's total.
	Rate float64
}

// TopConfusions returns the n largest off-diagonal flows of the matrix,
// ordered by count -- the paper's reading of Table 2 (VASP absorbing
// QC-ES errors, GROMACS <-> LAMMPS within molecular dynamics).
func (m *ConfusionMatrix) TopConfusions(n int) []ConfusedPair {
	totals := m.RowTotals()
	var out []ConfusedPair
	for i, row := range m.Counts {
		for j, c := range row {
			if i == j || c == 0 {
				continue
			}
			p := ConfusedPair{True: m.Classes[i], Pred: m.Classes[j], Count: c}
			if totals[i] > 0 {
				p.Rate = float64(c) / float64(totals[i])
			}
			out = append(out, p)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		if out[a].True != out[b].True {
			return out[a].True < out[b].True
		}
		return out[a].Pred < out[b].Pred
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
