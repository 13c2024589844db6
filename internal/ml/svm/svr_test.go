package svm

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestSVRLearnsSine(t *testing.T) {
	r := rng.New(1)
	n := 400
	x := make([][]float64, n)
	z := make([]float64, n)
	for i := range x {
		a := r.Float64()*4 - 2
		x[i] = []float64{a}
		z[i] = math.Sin(a) + 0.05*r.Normal()
	}
	m, err := TrainRegressor(x, z, RegressorConfig{Kernel: RBF{Gamma: 1}, C: 10, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []float64{-1.5, 0, 0.8, 1.7} {
		got := m.Predict([]float64{a})
		if math.Abs(got-math.Sin(a)) > 0.15 {
			t.Errorf("Predict(%v) = %v, want ~%v", a, got, math.Sin(a))
		}
	}
	if m.NumSupportVectors() == 0 || m.NumSupportVectors() > n {
		t.Errorf("support vectors = %d", m.NumSupportVectors())
	}
}

func TestSVRLinearFunction(t *testing.T) {
	r := rng.New(2)
	n := 200
	x := make([][]float64, n)
	z := make([]float64, n)
	for i := range x {
		a, b := r.Float64()*2-1, r.Float64()*2-1
		x[i] = []float64{a, b}
		z[i] = 3*a - 2*b + 1
	}
	m, err := TrainRegressor(x, z, RegressorConfig{Kernel: linear{}, C: 100, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][]float64{{0, 0}, {0.5, -0.5}, {-1, 1}} {
		want := 3*probe[0] - 2*probe[1] + 1
		got := m.Predict(probe)
		if math.Abs(got-want) > 0.1 {
			t.Errorf("Predict(%v) = %v, want %v", probe, got, want)
		}
	}
}

func TestSVREpsilonTubeSparsity(t *testing.T) {
	// A wider tube should keep fewer support vectors on clean data.
	r := rng.New(3)
	n := 300
	x := make([][]float64, n)
	z := make([]float64, n)
	for i := range x {
		a := r.Float64()*4 - 2
		x[i] = []float64{a}
		z[i] = a * a
	}
	narrow, err := TrainRegressor(x, z, RegressorConfig{Kernel: RBF{Gamma: 1}, C: 10, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := TrainRegressor(x, z, RegressorConfig{Kernel: RBF{Gamma: 1}, C: 10, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if wide.NumSupportVectors() >= narrow.NumSupportVectors() {
		t.Errorf("wide tube SVs (%d) should be fewer than narrow (%d)",
			wide.NumSupportVectors(), narrow.NumSupportVectors())
	}
}

func TestSVRBadInputs(t *testing.T) {
	if _, err := TrainRegressor(nil, nil, RegressorConfig{}); err == nil {
		t.Error("empty inputs not rejected")
	}
	if _, err := TrainRegressor([][]float64{{1}}, []float64{1, 2}, RegressorConfig{}); err == nil {
		t.Error("length mismatch not rejected")
	}
}

func TestSVRDefaults(t *testing.T) {
	// Nil kernel / zero C / negative epsilon get defaults and still train.
	x := [][]float64{{0}, {1}, {2}, {3}}
	z := []float64{0, 1, 2, 3}
	m, err := TrainRegressor(x, z, RegressorConfig{Epsilon: -1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.Predict([]float64{1.5})) {
		t.Error("prediction NaN with defaulted config")
	}
}

func TestSVRDeterminism(t *testing.T) {
	r := rng.New(4)
	n := 150
	x := make([][]float64, n)
	z := make([]float64, n)
	for i := range x {
		a := r.Float64()
		x[i] = []float64{a}
		z[i] = 2 * a
	}
	m1, _ := TrainRegressor(x, z, RegressorConfig{Kernel: RBF{Gamma: 2}, C: 5, Epsilon: 0.05})
	m2, _ := TrainRegressor(x, z, RegressorConfig{Kernel: RBF{Gamma: 2}, C: 5, Epsilon: 0.05})
	for _, probe := range []float64{0.1, 0.5, 0.9} {
		if m1.Predict([]float64{probe}) != m2.Predict([]float64{probe}) {
			t.Fatal("SVR not deterministic")
		}
	}
}

func TestSVRConstantTarget(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}, {4}}
	z := []float64{7, 7, 7, 7, 7}
	m, err := TrainRegressor(x, z, RegressorConfig{Kernel: RBF{Gamma: 1}, C: 10, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{2.5}); math.Abs(got-7) > 0.2 {
		t.Errorf("constant-target prediction = %v, want ~7", got)
	}
}

func BenchmarkSVRTrain(b *testing.B) {
	r := rng.New(1)
	n := 300
	x := make([][]float64, n)
	z := make([]float64, n)
	for i := range x {
		a := r.Float64()*4 - 2
		x[i] = []float64{a}
		z[i] = math.Sin(a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainRegressor(x, z, RegressorConfig{Kernel: RBF{Gamma: 1}, C: 10, Epsilon: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}
