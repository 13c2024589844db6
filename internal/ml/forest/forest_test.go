package forest

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/rng"
	"repro/internal/testkit"
)

func blobs(seed uint64, centers [][]float64, spread float64, perClass int) *dataset.Dataset {
	r := rng.New(seed)
	var rows [][]float64
	var labels []string
	for c, ctr := range centers {
		for i := 0; i < perClass; i++ {
			row := make([]float64, len(ctr))
			for j := range row {
				row[j] = ctr[j] + spread*r.Normal()
			}
			rows = append(rows, row)
			labels = append(labels, fmt.Sprintf("c%d", c))
		}
	}
	d, err := dataset.New(featNames(len(centers[0])), rows, labels)
	if err != nil {
		panic(err)
	}
	return d
}

func featNames(p int) []string {
	names := make([]string, p)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	return names
}

func TestClassifierBlobs(t *testing.T) {
	centers := [][]float64{{0, 3}, {3, 0}, {-3, 0}}
	train := blobs(1, centers, 0.7, 100)
	test := blobs(2, centers, 0.7, 50)
	c, err := TrainClassifier(train, Config{Trees: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := eval.VoteAccuracy(c, test); acc < 0.97 {
		t.Errorf("test accuracy = %v", acc)
	}
	if oob := c.OOBError(); oob > 0.05 {
		t.Errorf("OOB error = %v", oob)
	}
}

func TestClassifierXOR(t *testing.T) {
	r := rng.New(4)
	var rows [][]float64
	var labels []string
	for i := 0; i < 600; i++ {
		x := r.Float64()*2 - 1
		y := r.Float64()*2 - 1
		rows = append(rows, []float64{x, y})
		if (x > 0) == (y > 0) {
			labels = append(labels, "same")
		} else {
			labels = append(labels, "diff")
		}
	}
	d, _ := dataset.New([]string{"x", "y"}, rows, labels)
	c, err := TrainClassifier(d, Config{Trees: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := eval.VoteAccuracy(c, d); acc < 0.95 {
		t.Errorf("XOR accuracy = %v", acc)
	}
}

func TestPredictProb(t *testing.T) {
	centers := [][]float64{{0, 3}, {3, 0}}
	train := blobs(6, centers, 0.6, 100)
	c, _ := TrainClassifier(train, Config{Trees: 100, Seed: 7})
	cls, probs := c.PredictProb(centers[0])
	if c.Classes()[cls] != "c0" {
		t.Errorf("center 0 predicted %s", c.Classes()[cls])
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if probs[cls] < 0.9 {
		t.Errorf("center confidence = %v", probs[cls])
	}
	// Midpoint should be uncertain.
	_, mid := c.PredictProb([]float64{1.5, 1.5})
	if mid[0] > 0.95 || mid[1] > 0.95 {
		t.Errorf("midpoint should be uncertain: %v", mid)
	}
}

func TestImportanceFindsInformativeFeatures(t *testing.T) {
	// Feature 0 carries all the signal, features 1-3 are noise.
	r := rng.New(8)
	var rows [][]float64
	var labels []string
	for i := 0; i < 400; i++ {
		cls := i % 2
		row := []float64{float64(cls)*3 + r.Normal()*0.5, r.Normal(), r.Normal(), r.Normal()}
		rows = append(rows, row)
		labels = append(labels, fmt.Sprintf("c%d", cls))
	}
	d, _ := dataset.New(featNames(4), rows, labels)
	c, err := TrainClassifier(d, Config{Trees: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	imp := c.Importance()
	if len(imp) != 4 {
		t.Fatalf("importance length %d", len(imp))
	}
	for f := 1; f < 4; f++ {
		if imp[0] <= imp[f]+0.05 {
			t.Errorf("informative feature importance %v not above noise feature %d (%v)", imp[0], f, imp[f])
		}
	}
}

func TestImportanceDeterminism(t *testing.T) {
	d := blobs(10, [][]float64{{0, 2}, {2, 0}}, 0.8, 60)
	c1, _ := TrainClassifier(d, Config{Trees: 50, Seed: 11})
	c2, _ := TrainClassifier(d, Config{Trees: 50, Seed: 11})
	i1 := c1.Importance()
	i2 := c2.Importance()
	for f := range i1 {
		if i1[f] != i2[f] {
			t.Fatal("importance not deterministic")
		}
	}
}

func TestTrainDeterminism(t *testing.T) {
	d := blobs(12, [][]float64{{0, 2}, {2, 0}}, 0.8, 60)
	c1, _ := TrainClassifier(d, Config{Trees: 60, Seed: 13})
	c2, _ := TrainClassifier(d, Config{Trees: 60, Seed: 13})
	probe := []float64{1, 1}
	v1, v2 := c1.Votes(probe), c2.Votes(probe)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("votes not deterministic")
		}
	}
}

func TestEmptyTraining(t *testing.T) {
	d, _ := dataset.New([]string{"x"}, nil, nil)
	if _, err := TrainClassifier(d, Config{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := TrainRegressor(nil, nil, Config{}); err == nil {
		t.Fatal("expected regression error")
	}
}

// TestNaNRejected: a NaN feature or target is unordered, so no split can
// place it; training refuses it, naming the row. ±Inf are ordered and
// train (forest_ties.golden grows on them).
func TestNaNRejected(t *testing.T) {
	d := blobs(22, [][]float64{{0, 0}, {2, 2}}, 0.5, 10)
	y := make([]float64, d.Len())
	d.X[7][1] = math.NaN()
	if _, err := TrainClassifier(d, Config{Trees: 5}); err == nil || !strings.Contains(err.Error(), "row 7 feature 1 is NaN") {
		t.Errorf("classifier: err = %v", err)
	}
	if _, err := TrainRegressor(d.X, y, Config{Trees: 5}); err == nil || !strings.Contains(err.Error(), "row 7 feature 1 is NaN") {
		t.Errorf("regressor feature: err = %v", err)
	}
	d.X[7][1] = math.Inf(1)
	y[3] = math.NaN()
	if _, err := TrainRegressor(d.X, y, Config{Trees: 5}); err == nil || !strings.Contains(err.Error(), "row 3 target is NaN") {
		t.Errorf("regressor target: err = %v", err)
	}
}

func TestBootstrapProperties(t *testing.T) {
	r := rng.New(14)
	rows, oob := bootstrap(r, 1000)
	if len(rows) != 1000 {
		t.Fatalf("bootstrap size %d", len(rows))
	}
	// OOB fraction should be near 1/e ~ 0.368.
	frac := float64(len(oob)) / 1000
	if frac < 0.3 || frac > 0.44 {
		t.Errorf("OOB fraction = %v", frac)
	}
	in := map[int]bool{}
	for _, i := range rows {
		in[i] = true
	}
	for _, i := range oob {
		if in[i] {
			t.Fatal("OOB index appears in bag")
		}
	}
}

func TestRegressorLearnsFunction(t *testing.T) {
	r := rng.New(15)
	n := 1500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b := r.Float64()*4-2, r.Float64()*4-2
		x[i] = []float64{a, b}
		y[i] = a*a + 0.5*b + r.Normal()*0.1
	}
	m, err := TrainRegressor(x, y, Config{Trees: 100, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r2 := m.OOBR2(); r2 < 0.9 {
		t.Errorf("OOB R2 = %v", r2)
	}
	// Spot predictions.
	for _, probe := range [][]float64{{0, 0}, {1, 1}, {-1.5, 0.5}} {
		want := probe[0]*probe[0] + 0.5*probe[1]
		got := m.Predict(probe)
		if math.Abs(got-want) > 0.35 {
			t.Errorf("Predict(%v) = %v, want ~%v", probe, got, want)
		}
	}
}

func TestMinLeafLimitsDepth(t *testing.T) {
	d := blobs(17, [][]float64{{0, 0}, {0.5, 0.5}}, 1.0, 200)
	deep, _ := TrainClassifier(d, Config{Trees: 20, Seed: 18, MinLeaf: 1})
	shallow, _ := TrainClassifier(d, Config{Trees: 20, Seed: 18, MinLeaf: 50})
	deepNodes, shallowNodes := 0, 0
	for i := range deep.spec.Trees {
		deepNodes += len(deep.spec.Trees[i])
		shallowNodes += len(shallow.spec.Trees[i])
	}
	if shallowNodes >= deepNodes {
		t.Errorf("MinLeaf did not shrink trees: %d vs %d", shallowNodes, deepNodes)
	}
}

func TestMaxDepth(t *testing.T) {
	d := blobs(19, [][]float64{{0, 0}, {0.3, 0.3}}, 1.0, 300)
	c, _ := TrainClassifier(d, Config{Trees: 5, Seed: 20, MaxDepth: 2})
	for _, tr := range c.spec.Trees {
		// Depth-2 binary tree has at most 7 nodes.
		if len(tr) > 7 {
			t.Fatalf("tree has %d nodes, exceeds depth 2", len(tr))
		}
	}
}

func TestConstantFeatures(t *testing.T) {
	// All-constant features: tree cannot split; predicts the majority.
	rows := make([][]float64, 12)
	labels := make([]string, 12)
	for i := range rows {
		rows[i] = []float64{1, 1}
		if i < 10 {
			labels[i] = "a"
		} else {
			labels[i] = "b"
		}
	}
	d, _ := dataset.New([]string{"x", "y"}, rows, labels)
	c, err := TrainClassifier(d, Config{Trees: 50, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Classes()[c.Predict([]float64{1, 1})]; got != "a" {
		t.Errorf("majority prediction = %q", got)
	}
}

// servedShape is a training set the size of the one supremm-serve's
// forest fits at boot: 12 classes × 133 rows, 36 features, spread so
// that 200 trees hold about as many nodes (~25k) as the served forest.
func servedShape() *dataset.Dataset {
	return testkit.SynthClassification(testkit.SynthConfig{Seed: 1, Classes: 12, Features: 36, RowsPerCls: 133, Spread: 1.2})
}

// BenchmarkTrainClassifier fits core.PaperForest's 200 trees on the
// served shape: the per-package number behind core.train_ms.
func BenchmarkTrainClassifier(b *testing.B) {
	d := servedShape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainClassifier(d, Config{Trees: 200, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainRegressor fits the application-kernel model's 100
// regression trees on the served shape's rows.
func BenchmarkTrainRegressor(b *testing.B) {
	d := servedShape()
	y := make([]float64, d.Len())
	for i, row := range d.X {
		y[i] = float64(d.Y[i]) + row[0] - 0.5*row[1]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainRegressor(d.X, y, Config{Trees: 100, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	d := blobs(1, [][]float64{{0, 3}, {3, 0}}, 0.8, 300)
	c, _ := TrainClassifier(d, Config{Trees: 100, Seed: 2})
	probe := []float64{1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Predict(probe)
	}
}

// TestSharesAndMajority pins the vote tail both forest engines end in:
// shares of a full vote sum to 1 and ties go to the lowest class index.
func TestSharesAndMajority(t *testing.T) {
	for _, c := range []struct {
		votes []int
		best  int
	}{
		{[]int{3, 9, 4}, 1},
		{[]int{5, 5, 2}, 0},
		{[]int{0, 4, 4, 4}, 1},
		{[]int{0, 0, 7}, 2},
		{[]int{1}, 0},
	} {
		if got := Majority(c.votes); got != c.best {
			t.Errorf("Majority(%v) = %d, want %d", c.votes, got, c.best)
		}
		trees := 0
		for _, v := range c.votes {
			trees += v
		}
		probs := make([]float64, len(c.votes))
		if got := Shares(c.votes, trees, probs); got != c.best {
			t.Errorf("Shares(%v) winner = %d, want %d", c.votes, got, c.best)
		}
		var sum float64
		for _, p := range probs {
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("Shares(%v) = %v sums to %v", c.votes, probs, sum)
		}
	}
	if got := Majority([]int{0, 0, 0}); got != 0 {
		t.Errorf("Majority of no votes = %d, want 0", got)
	}
}
