package eval

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// fakeModel predicts class y = round(x[0]) mod k, with a confidence that
// depends on the row, so confusion tallies and accuracies are nontrivial.
type fakeModel struct{ classes []string }

func (f *fakeModel) Classes() []string { return f.classes }
func (f *fakeModel) PredictProb(x []float64) (int, []float64) {
	k := len(f.classes)
	cls := int(x[0]+0.5) % k
	if cls < 0 {
		cls += k
	}
	probs := make([]float64, k)
	probs[cls] = 0.5 + x[1]/2
	return cls, probs
}

func parityData(n, k int) *dataset.Dataset {
	names := []string{"f0", "f1"}
	rows := make([][]float64, n)
	labels := make([]string, n)
	for i := range rows {
		rows[i] = []float64{float64(i % (k + 1)), float64(i%7) / 7}
		labels[i] = fmt.Sprintf("c%d", i%k)
	}
	d, err := dataset.New(names, rows, labels)
	if err != nil {
		panic(err)
	}
	return d
}

// TestCrossValidateWorkerParity: the fold-mean accuracy is bit-identical
// at every worker count and GOMAXPROCS.
func TestCrossValidateWorkerParity(t *testing.T) {
	d := parityData(240, 4)
	trainFn := func(train *dataset.Dataset) (ProbClassifier, error) {
		return &fakeModel{classes: train.ClassNames}, nil
	}
	want, err := CrossValidate(d, 6, 3, 1, trainFn)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		for _, w := range []int{0, 2, 6} {
			got, err := CrossValidate(d, 6, 3, w, trainFn)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("GOMAXPROCS=%d workers=%d: accuracy %v != serial %v", procs, w, got, want)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestCrossValidateErrorPropagation: a failing fold surfaces its error.
func TestCrossValidateErrorPropagation(t *testing.T) {
	d := parityData(60, 3)
	var calls atomic.Int32 // folds train on two workers
	_, err := CrossValidate(d, 3, 1, 2, func(train *dataset.Dataset) (ProbClassifier, error) {
		calls.Add(1)
		return nil, fmt.Errorf("train failed")
	})
	if err == nil || err.Error() != "train failed" {
		t.Fatalf("err = %v, want train failed", err)
	}
	if calls.Load() == 0 {
		t.Fatal("trainFn never called")
	}
}

// TestConfusionMatrixWorkerParity: the chunked parallel tally matches the
// serial tally exactly, including above the parallel threshold.
func TestConfusionMatrixWorkerParity(t *testing.T) {
	classes := []string{"a", "b", "c"}
	n := confusionParallelMin + 1000
	preds := make([]Prediction, n)
	for i := range preds {
		preds[i] = Prediction{True: i % 3, Pred: (i * 7) % 3}
		if i%11 == 0 {
			preds[i].True = -1 // unlabeled rows must be skipped identically
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := NewConfusionMatrix(classes, preds) // one worker: the serial tally
	for _, w := range []int{2, 5, 16} {
		runtime.GOMAXPROCS(w)
		got := NewConfusionMatrix(classes, preds)
		for i := range want.Counts {
			for j := range want.Counts[i] {
				if got.Counts[i][j] != want.Counts[i][j] {
					t.Fatalf("workers=%d: counts[%d][%d] = %d, want %d",
						w, i, j, got.Counts[i][j], want.Counts[i][j])
				}
			}
		}
	}
}
