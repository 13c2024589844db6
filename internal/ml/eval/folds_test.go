package eval

import (
	"runtime"
	"testing"

	"repro/internal/testkit"
)

// TestStratifiedFoldsPartition checks the CV fold assignment is a true
// partition: every row lands in exactly one fold in [0, k), and within
// every class the fold sizes differ by at most one (stratification).
func TestStratifiedFoldsPartition(t *testing.T) {
	for _, k := range []int{2, 3, 5, 7} {
		for _, seed := range []uint64{0, 1, 99} {
			d := testkit.SynthClassification(testkit.SynthConfig{Seed: seed + 1, Classes: 3, RowsPerCls: 17})
			folds := StratifiedFolds(d, k, seed)
			if len(folds) != d.Len() {
				t.Fatalf("k=%d: %d assignments for %d rows", k, len(folds), d.Len())
			}
			perClassFold := make([][]int, d.NumClasses())
			for c := range perClassFold {
				perClassFold[c] = make([]int, k)
			}
			for i, f := range folds {
				if f < 0 || f >= k {
					t.Fatalf("k=%d: row %d assigned fold %d", k, i, f)
				}
				perClassFold[d.Y[i]][f]++
			}
			for c, counts := range perClassFold {
				min, max := counts[0], counts[0]
				for _, n := range counts[1:] {
					if n < min {
						min = n
					}
					if n > max {
						max = n
					}
				}
				if max-min > 1 {
					t.Errorf("k=%d seed=%d class %d: fold sizes %v not balanced", k, seed, c, counts)
				}
			}
		}
	}
}

// TestConfusionRowSumsAreClassCounts checks the structural invariant the
// paper's tables rely on: each confusion-matrix row sums to the true
// class's row count, no matter how wrong the predictions are.
func TestConfusionRowSumsAreClassCounts(t *testing.T) {
	d := testkit.SynthClassification(testkit.SynthConfig{Seed: 47})
	// Deliberately terrible predictions: always class 0, varying prob.
	preds := make([]Prediction, d.Len())
	for i := range preds {
		preds[i] = Prediction{True: d.Y[i], Pred: (d.Y[i] + i) % d.NumClasses(), MaxProb: 0.5}
	}
	for _, workers := range []int{1, 4} {
		old := runtime.GOMAXPROCS(workers)
		cm := NewConfusionMatrix(d.ClassNames, preds)
		runtime.GOMAXPROCS(old)
		totals := cm.RowTotals()
		counts := d.ClassCounts()
		for c := range counts {
			if totals[c] != counts[c] {
				t.Errorf("workers=%d class %d: row total %d, class count %d", workers, c, totals[c], counts[c])
			}
		}
	}
}
