package eval_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/bayes"
	"repro/internal/ml/eval"
	"repro/internal/rng"
	"repro/internal/testkit"
)

// TestGoldenEval pins the evaluation toolchain itself — confusion matrix,
// threshold curve, ROC-like sweep and its AUC, and cross-validated
// accuracy — on a fixed classifier over fixed data. Cross-validation runs
// at two worker counts and must agree exactly.
func TestGoldenEval(t *testing.T) {
	d := testkit.SynthClassification(testkit.SynthConfig{Seed: 71})
	train, test := d.Split(rng.New(71), 0.7)
	m, err := bayes.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	preds := eval.Score(m, test)
	cm := eval.NewConfusionMatrix(m.Classes(), preds)

	trainFn := func(tr *dataset.Dataset) (eval.ProbClassifier, error) { return bayes.Train(tr) }
	cv1, err := eval.CrossValidate(d, 5, 71, 1, trainFn)
	if err != nil {
		t.Fatal(err)
	}
	cv4, err := eval.CrossValidate(d, 5, 71, 4, trainFn)
	if err != nil {
		t.Fatal(err)
	}
	if cv1 != cv4 {
		t.Fatalf("cross-validation accuracy depends on worker count: %v vs %v", cv1, cv4)
	}

	roc := eval.ROCLike(preds, eval.DefaultThresholds())

	var b strings.Builder
	testkit.Section(&b, "evaluation toolchain / bayes on synth seed 71")
	b.WriteString(testkit.KeyVals(map[string]float64{
		"accuracy":    eval.Accuracy(preds),
		"cm_accuracy": cm.Accuracy(),
		"cv5":         cv1,
		"auc_like":    eval.AUCLike(roc),
	}))
	testkit.Section(&b, "confusion matrix")
	b.WriteString(cm.String())
	testkit.Section(&b, "per-class accuracy")
	b.WriteString(testkit.Floats(cm.ClassAccuracy()) + "\n")
	testkit.Section(&b, "threshold curve")
	for _, p := range eval.ThresholdCurve(preds, eval.DefaultThresholds()) {
		fmt.Fprintf(&b, "t=%s classified=%s correct=%s\n",
			testkit.Float(p.Threshold), testkit.Float(p.Classified), testkit.Float(p.CorrectlyClassified))
	}
	testkit.Section(&b, "roc-like sweep")
	for _, p := range roc {
		fmt.Fprintf(&b, "t=%s x=%s y=%s\n",
			testkit.Float(p.Threshold), testkit.Float(p.X), testkit.Float(p.Y))
	}
	testkit.GoldenString(t, "eval.golden", b.String())
}
