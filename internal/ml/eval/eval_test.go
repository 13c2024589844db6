package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// fakeClassifier predicts class = round(x[0]) with probability x[1].
type fakeClassifier struct{ classes []string }

func (f fakeClassifier) Classes() []string { return f.classes }
func (f fakeClassifier) PredictProb(x []float64) (int, []float64) {
	cls := int(x[0])
	probs := make([]float64, len(f.classes))
	rest := (1 - x[1]) / float64(len(f.classes)-1)
	for i := range probs {
		probs[i] = rest
	}
	probs[cls] = x[1]
	return cls, probs
}

func TestScoreAndAccuracy(t *testing.T) {
	d, _ := dataset.New([]string{"pred", "conf"},
		[][]float64{{0, 0.9}, {1, 0.8}, {0, 0.7}, {1, 0.6}},
		[]string{"a", "b", "b", "b"})
	preds := Score(fakeClassifier{d.ClassNames}, d)
	if len(preds) != 4 {
		t.Fatal("wrong count")
	}
	if acc := Accuracy(preds); math.Abs(acc-0.75) > 1e-12 {
		t.Errorf("accuracy = %v", acc)
	}
	if Accuracy(nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestConfusionMatrix(t *testing.T) {
	preds := []Prediction{
		{True: 0, Pred: 0}, {True: 0, Pred: 0}, {True: 0, Pred: 1},
		{True: 1, Pred: 1}, {True: 1, Pred: 0},
		{True: -1, Pred: 0}, // unlabeled: excluded
	}
	m := NewConfusionMatrix([]string{"a", "b"}, preds)
	if m.Counts[0][0] != 2 || m.Counts[0][1] != 1 || m.Counts[1][1] != 1 || m.Counts[1][0] != 1 {
		t.Fatalf("counts = %v", m.Counts)
	}
	if acc := m.Accuracy(); math.Abs(acc-0.6) > 1e-12 {
		t.Errorf("matrix accuracy = %v", acc)
	}
	ca := m.ClassAccuracy()
	if math.Abs(ca[0]-2.0/3.0) > 1e-12 || math.Abs(ca[1]-0.5) > 1e-12 {
		t.Errorf("class accuracy = %v", ca)
	}
	rt := m.RowTotals()
	if rt[0] != 3 || rt[1] != 2 {
		t.Errorf("row totals = %v", rt)
	}
	s := m.String()
	if !strings.Contains(s, "a (2): b (1)") {
		t.Errorf("rendered matrix missing row: %q", s)
	}
}

func TestThresholdCurve(t *testing.T) {
	preds := []Prediction{
		{True: 0, Pred: 0, MaxProb: 0.95},
		{True: 0, Pred: 1, MaxProb: 0.90}, // wrong but confident
		{True: 1, Pred: 1, MaxProb: 0.60},
		{True: 1, Pred: 1, MaxProb: 0.30},
	}
	pts := ThresholdCurve(preds, []float64{0.9, 0.5, 0.1})
	if pts[0].Classified != 0.5 || pts[0].CorrectlyClassified != 0.25 {
		t.Errorf("t=0.9 point = %+v", pts[0])
	}
	if pts[1].Classified != 0.75 || pts[1].CorrectlyClassified != 0.5 {
		t.Errorf("t=0.5 point = %+v", pts[1])
	}
	if pts[2].Classified != 1 || pts[2].CorrectlyClassified != 0.75 {
		t.Errorf("t=0.1 point = %+v", pts[2])
	}
	// Classified is monotone non-decreasing as threshold falls.
	for i := 1; i < len(pts); i++ {
		if pts[i].Classified < pts[i-1].Classified {
			t.Error("classified fraction not monotone")
		}
	}
}

func TestThresholdCurveUnlabeled(t *testing.T) {
	preds := []Prediction{
		{True: -1, Pred: 0, MaxProb: 0.9},
		{True: -1, Pred: 1, MaxProb: 0.4},
	}
	pts := ThresholdCurve(preds, []float64{0.5})
	if pts[0].Classified != 0.5 {
		t.Errorf("classified = %v", pts[0].Classified)
	}
	if pts[0].CorrectlyClassified != 0 {
		t.Error("unlabeled data cannot have correct classifications")
	}
}

func TestDefaultThresholds(t *testing.T) {
	ts := DefaultThresholds()
	if len(ts) != 20 || ts[0] != 1.0 || math.Abs(ts[19]-0.05) > 1e-12 {
		t.Errorf("thresholds = %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] >= ts[i-1] {
			t.Error("thresholds must decrease")
		}
	}
}

func TestROCLike(t *testing.T) {
	preds := []Prediction{
		{True: 0, Pred: 0, MaxProb: 0.99},
		{True: 0, Pred: 0, MaxProb: 0.80},
		{True: 1, Pred: 0, MaxProb: 0.95}, // incorrect, confident
		{True: 1, Pred: 0, MaxProb: 0.20}, // incorrect, unconfident
	}
	pts := ROCLike(preds, []float64{0.9, 0.5, 0.1})
	// t=0.9: correct passing = 1/2, incorrect passing = 1/2.
	if pts[0].X != 0.5 || pts[0].Y != 0.5 {
		t.Errorf("t=0.9 = %+v", pts[0])
	}
	// t=0.1: everything passes.
	if pts[2].X != 1 || pts[2].Y != 1 {
		t.Errorf("t=0.1 = %+v", pts[2])
	}
}

func TestAUCLikeOrdering(t *testing.T) {
	// Ideal: correct all pass, incorrect never pass -> area near 0.
	ideal := []ROCPoint{{Threshold: 0.9, X: 1, Y: 0}, {Threshold: 0.5, X: 1, Y: 0}}
	// Useless: thresholds cannot separate correct from incorrect.
	useless := []ROCPoint{{Threshold: 0.9, X: 0.5, Y: 0.5}, {Threshold: 0.5, X: 1, Y: 1}}
	if a, b := AUCLike(ideal), AUCLike(useless); a >= b {
		t.Errorf("ideal AUC %v should beat useless %v", a, b)
	}
}

func TestCrossValidate(t *testing.T) {
	// Trivially learnable data; the fake classifier ignores training and
	// predicts from the row itself, so CV accuracy is deterministic.
	rows := [][]float64{
		{0, 0.9}, {0, 0.9}, {0, 0.9}, {0, 0.9},
		{1, 0.9}, {1, 0.9}, {1, 0.9}, {1, 0.9},
	}
	labels := []string{"a", "a", "a", "a", "b", "b", "b", "b"}
	d, _ := dataset.New([]string{"pred", "conf"}, rows, labels)
	acc, err := CrossValidate(d, 4, 1, 0, func(train *dataset.Dataset) (ProbClassifier, error) {
		return fakeClassifier{train.ClassNames}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("CV accuracy = %v", acc)
	}
	if _, err := CrossValidate(d, 1, 1, 0, nil); err == nil {
		t.Error("k=1 should error")
	}
}

func TestScoreUnlabeled(t *testing.T) {
	preds := Score(fakeClassifier{[]string{"a", "b"}}, &dataset.Dataset{X: [][]float64{{1, 0.7}}})
	if preds[0].True != -1 || preds[0].Pred != 1 || preds[0].MaxProb != 0.7 {
		t.Errorf("unlabeled prediction = %+v", preds[0])
	}
}

func TestTopConfusions(t *testing.T) {
	preds := []Prediction{
		{True: 0, Pred: 0}, {True: 0, Pred: 0}, {True: 0, Pred: 1}, {True: 0, Pred: 1},
		{True: 1, Pred: 0},
		{True: 2, Pred: 0}, {True: 2, Pred: 0}, {True: 2, Pred: 0},
	}
	m := NewConfusionMatrix([]string{"a", "b", "c"}, preds)
	top := m.TopConfusions(2)
	if len(top) != 2 {
		t.Fatalf("top = %d pairs", len(top))
	}
	if top[0].True != "c" || top[0].Pred != "a" || top[0].Count != 3 {
		t.Errorf("top pair = %+v", top[0])
	}
	if math.Abs(top[0].Rate-1.0) > 1e-12 {
		t.Errorf("rate = %v", top[0].Rate)
	}
	if top[1].True != "a" || top[1].Pred != "b" || top[1].Count != 2 {
		t.Errorf("second pair = %+v", top[1])
	}
	// n = 0 returns everything.
	if got := m.TopConfusions(0); len(got) != 3 {
		t.Errorf("all pairs = %d", len(got))
	}
}
