package svm_test

import (
	"strings"
	"testing"

	"repro/internal/ml/eval"
	"repro/internal/ml/svm"
	"repro/internal/rng"
	"repro/internal/testkit"
)

// TestGoldenSVM pins the one-vs-one SMO SVM under the paper's
// configuration (RBF gamma=0.1, C=1000, Platt-calibrated probabilities)
// on a fixed synthetic dataset. The model is trained at two worker
// counts and must agree bit-exactly before the golden compare.
func TestGoldenSVM(t *testing.T) {
	d := testkit.SynthClassification(testkit.SynthConfig{Seed: 67, Classes: 3, RowsPerCls: 30})
	train, test := d.Split(rng.New(67), 0.7)
	// The paper pipeline standardizes on training statistics and applies
	// the identical transform to test rows.
	test.Apply(train.Standardize())

	cfg := svm.PaperConfig()
	cfg.Seed = 67
	cfg.Workers = 1
	m1, err := svm.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	m4, err := svm.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	classes := make([]int, test.Len())
	probRows := make([][]float64, test.Len())
	for i, row := range test.X {
		cls, probs := m1.PredictProb(row)
		classes[i] = cls
		probRows[i] = probs
		cls4, probs4 := m4.PredictProb(row)
		if cls4 != cls {
			t.Fatalf("row %d: worker count changed the prediction", i)
		}
		if testkit.MaxAbsDiff(probs, probs4) != 0 {
			t.Fatalf("row %d: worker count perturbed the posterior", i)
		}
	}
	preds := eval.Score(m1, test)

	var b strings.Builder
	testkit.Section(&b, "one-vs-one SVM / RBF gamma=0.1 C=1000 / synth seed 67")
	b.WriteString(testkit.KeyVals(map[string]float64{
		"train_accuracy":  eval.VoteAccuracy(m1, train),
		"test_accuracy":   eval.Accuracy(preds),
		"support_vectors": float64(m1.NumSupportVectors()),
	}))
	testkit.Section(&b, "digests")
	b.WriteString("predictions = " + testkit.HashInts(classes) + "\n")
	b.WriteString("posteriors  = " + testkit.HashFloats(probRows...) + "\n")
	testkit.GoldenString(t, "svm.golden", b.String())
}
