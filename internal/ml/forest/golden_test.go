package forest_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/ml/forest"
	"repro/internal/rng"
	"repro/internal/testkit"
)

func synthForestData(t *testing.T) (train, test *dataset.Dataset) {
	t.Helper()
	d := testkit.SynthClassification(testkit.SynthConfig{Seed: 53})
	tr, te := d.Split(rng.New(53), 0.7)
	return tr, te
}

// TestGoldenForest pins the random forest's observable behavior: OOB
// error, accuracies, the permutation-importance ranking, the prediction
// vector, and the serialized model bytes. The model is trained at two
// worker counts and must digest identically before the golden compare —
// parallel tree construction may not perturb results.
func TestGoldenForest(t *testing.T) {
	train, test := synthForestData(t)
	cfg := forest.Config{Trees: 60, Seed: 9, Workers: 1}
	m1, err := forest.TrainClassifier(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	m4, err := forest.TrainClassifier(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := m1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b4, err := m4.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if testkit.HashBytes(b1) != testkit.HashBytes(b4) {
		t.Fatal("worker count changed the serialized forest")
	}
	if m1.OOBError() != m4.OOBError() {
		t.Fatalf("worker count changed OOB error: %v vs %v", m1.OOBError(), m4.OOBError())
	}
	if !reflect.DeepEqual(m1.Importance(), m4.Importance()) {
		t.Fatal("worker count changed permutation importance")
	}

	preds := eval.Score(m1, test)
	classes := make([]int, len(preds))
	for i := range preds {
		classes[i] = preds[i].Pred
	}
	imp := m1.Importance()
	ranked := rankNames(train.FeatureNames, imp)

	// Round trip: a restored model must predict identically. The raw gob
	// bytes are deliberately NOT golden-hashed: encoding/gob assigns wire
	// type IDs from a process-global counter, so the stream depends on
	// what else has been gob-encoded earlier in the process (i.e. on test
	// execution order). The restored model's full-precision vote profile
	// pins the serialized parameters canonically instead.
	var back forest.Classifier
	if err := back.UnmarshalBinary(b1); err != nil {
		t.Fatal(err)
	}
	var restored []float64
	for i, row := range test.X {
		pred, probs := back.PredictProb(row)
		if pred != classes[i] {
			t.Fatalf("row %d: restored model disagrees", i)
		}
		restored = append(restored, probs...)
	}

	var b strings.Builder
	testkit.Section(&b, "random forest / synth seed 53, 60 trees")
	b.WriteString(testkit.KeyVals(map[string]float64{
		"oob_error":      m1.OOBError(),
		"train_accuracy": eval.VoteAccuracy(m1, train),
		"test_accuracy":  eval.Accuracy(preds),
	}))
	testkit.Section(&b, "importance ranking")
	for _, r := range ranked {
		fmt.Fprintf(&b, "%s = %s\n", r.name, testkit.Float(r.imp))
	}
	testkit.Section(&b, "digests")
	b.WriteString("predictions    = " + testkit.HashInts(classes) + "\n")
	b.WriteString("restored_probs = " + testkit.HashFloats(restored) + "\n")
	testkit.GoldenString(t, "forest.golden", b.String())
}

type rankedName struct {
	name string
	imp  float64
}

// rankNames sorts features by descending importance (ties by name), the
// same ordering core.RankFeatures uses for the Table 3 reproduction.
func rankNames(names []string, imp []float64) []rankedName {
	out := make([]rankedName, len(names))
	for i := range names {
		out[i] = rankedName{names[i], imp[i]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].imp != out[j].imp {
			return out[i].imp > out[j].imp
		}
		return out[i].name < out[j].name
	})
	return out
}
