package bayes_test

import (
	"strings"
	"testing"

	"repro/internal/ml/bayes"
	"repro/internal/ml/eval"
	"repro/internal/rng"
	"repro/internal/testkit"
)

// TestGoldenBayes pins the naive Bayes classifier's observable behavior on
// a fixed synthetic dataset: accuracies to full float precision, the exact
// prediction vector, the posterior matrix digest, and the confusion
// matrix. Any change to the model's arithmetic shows up as a digest diff.
func TestGoldenBayes(t *testing.T) {
	d := testkit.SynthClassification(testkit.SynthConfig{Seed: 41})
	train, test := d.Split(rng.New(41), 0.7)
	m, err := bayes.Train(train)
	if err != nil {
		t.Fatal(err)
	}

	preds := eval.Score(m, test)
	classes := make([]int, len(preds))
	probRows := make([][]float64, len(preds))
	for i, row := range test.X {
		cls, probs := m.PredictProb(row)
		classes[i] = cls
		probRows[i] = probs
		if cls != preds[i].Pred {
			t.Fatalf("row %d: PredictProb class %d disagrees with Score %d", i, cls, preds[i].Pred)
		}
	}
	cm := eval.NewConfusionMatrix(m.Classes(), preds)

	var b strings.Builder
	testkit.Section(&b, "gaussian naive bayes / synth seed 41")
	b.WriteString(testkit.KeyVals(map[string]float64{
		"train_accuracy": eval.VoteAccuracy(m, train),
		"test_accuracy":  eval.Accuracy(preds),
	}))
	testkit.Section(&b, "digests")
	b.WriteString("predictions = " + testkit.HashInts(classes) + "\n")
	b.WriteString("posteriors  = " + testkit.HashFloats(probRows...) + "\n")
	testkit.Section(&b, "confusion matrix")
	b.WriteString(cm.String())
	testkit.GoldenString(t, "bayes.golden", b.String())
}
