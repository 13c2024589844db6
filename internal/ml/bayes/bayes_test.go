package bayes

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/rng"
)

func gaussians(seed uint64, n int) *dataset.Dataset {
	r := rng.New(seed)
	var rows [][]float64
	var labels []string
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			rows = append(rows, []float64{r.NormalAt(-2, 1), r.NormalAt(0, 1)})
			labels = append(labels, "neg")
		} else {
			rows = append(rows, []float64{r.NormalAt(2, 1), r.NormalAt(0, 1)})
			labels = append(labels, "pos")
		}
	}
	d, _ := dataset.New([]string{"x", "y"}, rows, labels)
	return d
}

func TestGaussianSeparation(t *testing.T) {
	train := gaussians(1, 600)
	test := gaussians(2, 400)
	m, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if acc := eval.VoteAccuracy(m, test); acc < 0.95 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestPredictProbSane(t *testing.T) {
	m, _ := Train(gaussians(3, 600))
	cls, probs := m.PredictProb([]float64{-2, 0})
	if m.Classes()[cls] != "neg" {
		t.Errorf("predicted %s", m.Classes()[cls])
	}
	var sum float64
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probs sum to %v", sum)
	}
	if probs[cls] < 0.9 {
		t.Errorf("deep-region confidence = %v", probs[cls])
	}
	_, mid := m.PredictProb([]float64{0, 0})
	if mid[0] > 0.8 || mid[1] > 0.8 {
		t.Errorf("boundary point should be uncertain: %v", mid)
	}
}

func TestNBFailsOnXOR(t *testing.T) {
	// Naive Bayes cannot represent XOR: per-class marginals are identical.
	r := rng.New(4)
	var rows [][]float64
	var labels []string
	for i := 0; i < 800; i++ {
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
	m, _ := Train(d)
	if acc := eval.VoteAccuracy(m, d); acc > 0.65 {
		t.Errorf("NB on XOR should be near chance, got %v", acc)
	}
}

func TestConstantFeature(t *testing.T) {
	rows := [][]float64{{1, 0}, {1, 1}, {1, 0}, {1, 5}, {1, 6}, {1, 5}}
	labels := []string{"a", "a", "a", "b", "b", "b"}
	d, _ := dataset.New([]string{"const", "sig"}, rows, labels)
	m, err := Train(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Classes()[m.Predict([]float64{1, 5.5})]; got != "b" {
		t.Errorf("prediction with constant feature = %q", got)
	}
}

func TestEmptyTraining(t *testing.T) {
	d, _ := dataset.New([]string{"x"}, nil, nil)
	if _, err := Train(d); err == nil {
		t.Fatal("expected error")
	}
}

func TestMissingClassInTraining(t *testing.T) {
	// Class vocabulary includes "c" but training subset has only a, b.
	rows := [][]float64{{0}, {1}, {0.1}, {0.9}, {5}}
	labels := []string{"a", "b", "a", "b", "c"}
	d, _ := dataset.New([]string{"x"}, rows, labels)
	sub := d.Subset([]int{0, 1, 2, 3})
	m, err := Train(sub)
	if err != nil {
		t.Fatal(err)
	}
	cls, probs := m.PredictProb([]float64{0})
	if m.Classes()[cls] != "a" {
		t.Errorf("prediction = %q", m.Classes()[cls])
	}
	if probs[d.ClassIndex("c")] != 0 {
		t.Error("untrained class should carry zero probability")
	}
}

func BenchmarkTrain(b *testing.B) {
	d := gaussians(1, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(d); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPosterior pins the softmax both NB engines end in: the posterior
// sums to 1, an untrained (-Inf) class gets exactly 0, and the winner is
// the largest log likelihood, the first on ties.
func TestPosterior(t *testing.T) {
	untrained := math.Inf(-1)
	for _, c := range []struct {
		name string
		lls  []float64
		best int
	}{
		{"spread", []float64{-3, -1, -2}, 1},
		{"untrained classes", []float64{untrained, -700, untrained, -702}, 1},
		{"tie goes to the first", []float64{-5, -2, -2}, 1},
		{"one trained class", []float64{untrained, 42, untrained}, 1},
		{"far below the max", []float64{0, -1e4, -5}, 0},
	} {
		probs := []float64{9, 9, 9, 9}[:len(c.lls)] // stale scratch is overwritten
		if best := Posterior(c.lls, probs); best != c.best {
			t.Errorf("%s: winner %d, want %d (%v)", c.name, best, c.best, probs)
		}
		var sum float64
		for i, p := range probs {
			sum += p
			if math.IsInf(c.lls[i], -1) && p != 0 {
				t.Errorf("%s: untrained class %d has posterior %v, want exactly 0", c.name, i, p)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: posterior sums to %v (%v)", c.name, sum, probs)
		}
	}
}

// TestPosteriorNaN: a NaN log likelihood never wins the max, but it
// makes the normalizer NaN, so every entry is NaN and the winner stays
// class 0. Serving refuses such a posterior rather than answer it.
func TestPosteriorNaN(t *testing.T) {
	probs := make([]float64, 3)
	if best := Posterior([]float64{-2, math.NaN(), -1}, probs); best != 0 {
		t.Errorf("winner %d, want 0", best)
	}
	for i, p := range probs {
		if !math.IsNaN(p) {
			t.Errorf("posterior[%d] = %v, want NaN", i, p)
		}
	}
}
