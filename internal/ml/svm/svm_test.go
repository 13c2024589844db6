package svm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/rng"
)

// blobs builds a k-class Gaussian-blob dataset with the given per-class
// centers and spread.
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
	d, err := dataset.New([]string{"x", "y"}, rows, labels)
	if err != nil {
		panic(err)
	}
	return d
}

// linear is the dot-product kernel. It is not one a model saves or
// serves; the solver tests use it as a separable baseline and as XOR's
// negative control.
type linear struct{}

func (linear) Compute(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestKernels(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	if got := (linear{}).Compute(a, b); got != 11 {
		t.Errorf("linear = %v", got)
	}
	rbf := RBF{Gamma: 0.5}
	want := math.Exp(-0.5 * 8) // ||a-b||^2 = 8
	if got := rbf.Compute(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("rbf = %v, want %v", got, want)
	}
	if got := rbf.Compute(a, a); got != 1 {
		t.Errorf("rbf self = %v", got)
	}
}

func TestRowCacheLRU(t *testing.T) {
	computes := 0
	c := newRowCache(8*4*2, func(i int) ([]float64, []float64) { // budget: 2 rows of 4
		computes++
		return make([]float64, 4), nil
	})
	c.get(0)
	c.get(1)
	c.get(0) // hit
	if computes != 2 {
		t.Fatalf("computes = %d", computes)
	}
	c.get(2) // evicts 1 (LRU)
	c.get(0) // still cached
	if computes != 3 {
		t.Fatalf("computes = %d after eviction pattern", computes)
	}
	c.get(1) // recompute
	if computes != 4 {
		t.Fatalf("computes = %d", computes)
	}
}

func TestBinaryLinearlySeparable(t *testing.T) {
	d := blobs(1, [][]float64{{-2, -2}, {2, 2}}, 0.5, 100)
	m, err := Train(d, Config{Kernel: linear{}, C: 10})
	if err != nil {
		t.Fatal(err)
	}
	if acc := eval.VoteAccuracy(m, d); acc < 0.99 {
		t.Errorf("separable accuracy = %v", acc)
	}
}

func TestBinaryXORNeedsRBF(t *testing.T) {
	// XOR: linearly inseparable, RBF must solve it.
	r := rng.New(2)
	var rows [][]float64
	var labels []string
	for i := 0; i < 400; i++ {
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
	rbf, err := Train(d, Config{Kernel: RBF{Gamma: 2}, C: 100})
	if err != nil {
		t.Fatal(err)
	}
	if acc := eval.VoteAccuracy(rbf, d); acc < 0.95 {
		t.Errorf("RBF XOR accuracy = %v", acc)
	}
	lin, err := Train(d, Config{Kernel: linear{}, C: 100})
	if err != nil {
		t.Fatal(err)
	}
	if acc := eval.VoteAccuracy(lin, d); acc > 0.75 {
		t.Errorf("linear XOR accuracy suspiciously high: %v", acc)
	}
}

func TestMulticlassBlobs(t *testing.T) {
	centers := [][]float64{{0, 4}, {4, 0}, {-4, 0}, {0, -4}}
	train := blobs(3, centers, 0.8, 80)
	test := blobs(4, centers, 0.8, 40)
	m, err := Train(train, Config{Kernel: RBF{Gamma: 0.5}, C: 10})
	if err != nil {
		t.Fatal(err)
	}
	if acc := eval.VoteAccuracy(m, test); acc < 0.97 {
		t.Errorf("multiclass test accuracy = %v", acc)
	}
	if len(m.Classes()) != 4 {
		t.Errorf("classes = %d", len(m.Classes()))
	}
	if m.NumSupportVectors() == 0 {
		t.Error("no support vectors")
	}
}

func TestPredictProb(t *testing.T) {
	centers := [][]float64{{0, 4}, {4, 0}, {-4, 0}}
	train := blobs(5, centers, 0.7, 100)
	m, err := Train(train, Config{Kernel: RBF{Gamma: 0.5}, C: 10, Probability: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Probabilities sum to 1 and the argmax matches the confident region.
	for c, ctr := range centers {
		cls, probs := m.PredictProb(ctr)
		var sum float64
		for _, p := range probs {
			if p < 0 || p > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("probabilities sum to %v", sum)
		}
		if m.Classes()[cls] != fmt.Sprintf("c%d", c) {
			t.Errorf("center %d predicted as %s", c, m.Classes()[cls])
		}
		if probs[cls] < 0.8 {
			t.Errorf("center %d confidence = %v, want high", c, probs[cls])
		}
	}
	// A point equidistant from all centers should be less confident than
	// a center point.
	_, probsMid := m.PredictProb([]float64{0, 0})
	maxMid := 0.0
	for _, p := range probsMid {
		if p > maxMid {
			maxMid = p
		}
	}
	_, probsCtr := m.PredictProb(centers[0])
	if maxMid >= probsCtr[0] {
		t.Errorf("ambiguous point confidence %v >= center confidence %v", maxMid, probsCtr[0])
	}
}

func TestTrainDeterminism(t *testing.T) {
	d := blobs(6, [][]float64{{-2, 0}, {2, 0}}, 0.8, 60)
	m1, _ := Train(d, Config{Kernel: RBF{Gamma: 1}, C: 10, Probability: true, Seed: 4})
	m2, _ := Train(d, Config{Kernel: RBF{Gamma: 1}, C: 10, Probability: true, Seed: 4})
	probe := []float64{0.3, -0.1}
	c1, p1 := m1.PredictProb(probe)
	c2, p2 := m2.PredictProb(probe)
	if c1 != c2 {
		t.Fatal("nondeterministic prediction")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("nondeterministic probabilities")
		}
	}
}

func TestEmptyTrainingSet(t *testing.T) {
	d, _ := dataset.New([]string{"x"}, nil, nil)
	if _, err := Train(d, Config{}); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestFitSigmoidRecoversMonotone(t *testing.T) {
	// Labels generated from a known sigmoid of the decision value: the
	// fit must produce a decreasing fApB in f (A < 0) and calibrated
	// mid-point probability.
	r := rng.New(7)
	n := 2000
	dec := make([]float64, n)
	y := make([]float64, n)
	for i := range dec {
		dec[i] = r.NormalAt(0, 2)
		p := 1 / (1 + math.Exp(-1.5*dec[i]))
		if r.Float64() < p {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	a, b := fitSigmoid(dec, y)
	if a >= 0 {
		t.Fatalf("A = %v, want negative", a)
	}
	mid := 1 / (1 + math.Exp(a*0+b))
	if math.Abs(mid-0.5) > 0.05 {
		t.Errorf("P(y=1|f=0) = %v, want ~0.5", mid)
	}
	hi := 1 / (1 + math.Exp(a*3+b))
	if hi < 0.9 {
		t.Errorf("P(y=1|f=3) = %v, want high", hi)
	}
}

// coupleMatrix runs Couple with every class of the k x k matrix r
// active, flattening r the way both engines lay it out.
func coupleMatrix(r [][]float64) []float64 {
	k := len(r)
	flat := make([]float64, 0, k*k)
	active := make([]int, k)
	for i, row := range r {
		flat = append(flat, row...)
		active[i] = i
	}
	probs := make([]float64, k)
	Couple(flat, active, probs, make([]float64, k), make([]float64, k*k), make([]float64, k))
	return probs
}

func TestCoupleProbabilities(t *testing.T) {
	// Perfectly confident pairwise wins for class 0.
	r := [][]float64{
		{0, 0.9, 0.9},
		{0.1, 0, 0.5},
		{0.1, 0.5, 0},
	}
	p := coupleMatrix(r)
	var sum float64
	for _, v := range p {
		sum += v
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if !(p[0] > p[1] && p[0] > p[2]) {
		t.Errorf("class 0 should dominate: %v", p)
	}
	if math.Abs(p[1]-p[2]) > 1e-3 {
		t.Errorf("symmetric classes should tie: %v", p)
	}
}

func TestCoupleProbabilitiesUniform(t *testing.T) {
	r := [][]float64{
		{0, 0.5, 0.5},
		{0.5, 0, 0.5},
		{0.5, 0.5, 0},
	}
	p := coupleMatrix(r)
	for _, v := range p {
		if math.Abs(v-1.0/3.0) > 1e-3 {
			t.Errorf("uniform coupling = %v", p)
		}
	}
}

func TestCoupleSingleClass(t *testing.T) {
	p := coupleMatrix([][]float64{{0}})
	if len(p) != 1 || p[0] != 1 {
		t.Errorf("single class coupling = %v", p)
	}
}

// TestPairProbFallbackAndClip: an uncalibrated pair ignores A and B and
// reads its margin through 1/(1+exp(-2f)); both forms clip to
// [1e-7, 1-1e-7].
func TestPairProbFallbackAndClip(t *testing.T) {
	for _, c := range []struct {
		f, a, b float64
		hasAB   bool
		want    float64
	}{
		{0, math.NaN(), math.NaN(), false, 0.5},
		{1, 0, 0, false, 1 / (1 + math.Exp(-2))},
		{100, 0, 0, false, 1 - 1e-7},
		{-100, 0, 0, false, 1e-7},
		{0, -2, 0, true, 0.5},
		{100, -2, 0, true, 1 - 1e-7},
		{100, 2, 0, true, 1e-7},
	} {
		if got := PairProb(c.f, c.a, c.b, c.hasAB); got != c.want {
			t.Errorf("PairProb(%v, %v, %v, %v) = %v, want %v", c.f, c.a, c.b, c.hasAB, got, c.want)
		}
	}
}

// TestCoupleInactiveClasses: Couple spreads the active classes'
// posterior into class space, gives every other class exactly 0 (stale
// buffer contents included) and returns the winner's class index.
func TestCoupleInactiveClasses(t *testing.T) {
	probs := []float64{9, 9, 9, 9}
	p, q, qp := make([]float64, 2), make([]float64, 4), make([]float64, 2)
	best := Couple([]float64{0, 0.2, 0.8, 0}, []int{1, 3}, probs, p, q, qp)
	if best != 3 || probs[0] != 0 || probs[2] != 0 || !(probs[3] > probs[1]) {
		t.Errorf("Couple over classes {1, 3} = %d, %v; want winner 3 and zeros at 0 and 2", best, probs)
	}
	if sum := probs[1] + probs[3]; math.Abs(sum-1) > 1e-6 {
		t.Errorf("posterior sums to %v", sum)
	}
	if best := Couple(nil, nil, probs, nil, nil, nil); best != 0 || probs[1] != 0 || probs[3] != 0 {
		t.Errorf("Couple with no active class = %d, %v; want 0 and all zeros", best, probs)
	}
}

func TestImbalancedPair(t *testing.T) {
	// Heavy class imbalance in a pair must still train.
	r := rng.New(8)
	var rows [][]float64
	var labels []string
	for i := 0; i < 190; i++ {
		rows = append(rows, []float64{r.NormalAt(-2, 0.5), r.NormalAt(0, 0.5)})
		labels = append(labels, "big")
	}
	for i := 0; i < 10; i++ {
		rows = append(rows, []float64{r.NormalAt(2, 0.5), r.NormalAt(0, 0.5)})
		labels = append(labels, "small")
	}
	d, _ := dataset.New([]string{"x", "y"}, rows, labels)
	m, err := Train(d, Config{Kernel: RBF{Gamma: 1}, C: 10, Probability: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Classes()[m.Predict([]float64{2, 0})]; got != "small" {
		t.Errorf("minority center predicted as %q", got)
	}
}

func BenchmarkTrainBinary500(b *testing.B) {
	d := blobs(1, [][]float64{{-1, 0}, {1, 0}}, 1.0, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(d, Config{Kernel: RBF{Gamma: 0.5}, C: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	d := blobs(1, [][]float64{{-1, 0}, {1, 0}, {0, 2}}, 1.0, 200)
	m, _ := Train(d, Config{Kernel: RBF{Gamma: 0.5}, C: 10})
	probe := []float64{0.2, 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(probe)
	}
}

func BenchmarkPredictProb(b *testing.B) {
	d := blobs(1, [][]float64{{-1, 0}, {1, 0}, {0, 2}}, 1.0, 200)
	m, _ := Train(d, Config{Kernel: RBF{Gamma: 0.5}, C: 10, Probability: true})
	probe := []float64{0.2, 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.PredictProb(probe)
	}
}

// TestUntrainableConfigRefused: Train and TrainRegressor refuse a NaN C
// and an RBF gamma that is not finite and positive before any solve,
// naming the field; C <= 0 still means 1, and C = +Inf trains a
// hard-margin model.
func TestUntrainableConfigRefused(t *testing.T) {
	d := blobs(3, [][]float64{{-2, 0}, {2, 0}, {0, 3}}, 0.5, 12)
	inf := math.Inf(1)
	for _, tc := range []struct {
		name   string
		kernel Kernel
		c      float64
		want   string // "" = trains
	}{
		{"NaN C", RBF{Gamma: 0.1}, math.NaN(), "C is NaN"},
		{"NaN gamma", RBF{Gamma: math.NaN()}, 10, "Gamma is NaN"},
		{"+Inf gamma", RBF{Gamma: inf}, 10, "Gamma is +Inf"},
		{"-Inf gamma", RBF{Gamma: -inf}, 10, "Gamma is -Inf"},
		{"zero gamma", RBF{Gamma: 0}, 10, "Gamma is 0"},
		{"negative gamma", RBF{Gamma: -1}, 10, "Gamma is -1"},
		{"zero C", RBF{Gamma: 0.1}, 0, ""},
		{"negative C", RBF{Gamma: 0.1}, -5, ""},
		{"+Inf C", RBF{Gamma: 0.1}, inf, ""},
		{"a kernel that is not RBF", linear{}, 10, ""},
	} {
		m, err := Train(d, Config{Kernel: tc.kernel, C: tc.c, Probability: true, Seed: 3})
		if (err == nil) != (tc.want == "") || !strings.Contains(fmt.Sprint(err), tc.want) {
			t.Errorf("%s: Train error %v, want %q", tc.name, err, tc.want)
		} else if err == nil && eval.VoteAccuracy(m, d) < 0.99 {
			t.Errorf("%s: Train: accuracy %v on separable blobs", tc.name, eval.VoteAccuracy(m, d))
		}
		_, err = TrainRegressor(d.X, make([]float64, d.Len()), RegressorConfig{Kernel: tc.kernel, C: tc.c})
		if (err == nil) != (tc.want == "") || !strings.Contains(fmt.Sprint(err), tc.want) {
			t.Errorf("%s: TrainRegressor error %v, want %q", tc.name, err, tc.want)
		}
	}
}
