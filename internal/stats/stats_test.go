package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if !almostEqual(a.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", a.Mean())
	}
	if !almostEqual(a.Variance(), 4, 1e-12) {
		t.Errorf("variance = %v", a.Variance())
	}
	if !almostEqual(a.StdDev(), 2, 1e-12) {
		t.Errorf("stddev = %v", a.StdDev())
	}
	if !almostEqual(a.COV(), 0.4, 1e-12) {
		t.Errorf("cov = %v", a.COV())
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.COV() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Variance() != 0 || a.COV() != 0 {
		t.Error("single observation: mean 3.5, var 0, cov 0")
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset: naive sum-of-squares would lose precision.
	var a Accumulator
	base := 1e9
	for _, d := range []float64{4, 7, 13, 16} {
		a.Add(base + d)
	}
	if !almostEqual(a.Variance(), 22.5, 1e-6) {
		t.Errorf("variance = %v, want 22.5", a.Variance())
	}
}

func TestMeanStdDevCOV(t *testing.T) {
	fold := func(xs ...float64) *Accumulator {
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		return &a
	}
	a := fold(1, 2, 3, 4)
	if a.Mean() != 2.5 || !almostEqual(a.StdDev(), math.Sqrt(1.25), 1e-12) ||
		!almostEqual(a.COV(), math.Sqrt(1.25)/2.5, 1e-12) {
		t.Errorf("Mean, StdDev, COV = %v, %v, %v", a.Mean(), a.StdDev(), a.COV())
	}
	if fold(5).COV() != 0 {
		t.Error("COV of single value should be 0")
	}
	if fold(0, 0, 0).COV() != 0 {
		t.Error("COV with zero mean should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if Quantile(xs, 0) != 1 {
		t.Errorf("q0 = %v", Quantile(xs, 0))
	}
	if Quantile(xs, 1) != 9 {
		t.Errorf("q1 = %v", Quantile(xs, 1))
	}
	if !almostEqual(Median(xs), 3.5, 1e-12) {
		t.Errorf("median = %v", Median(xs))
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) != 0")
	}
	// must not mutate input
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if !almostEqual(Quantile(xs, 0.25), 2.5, 1e-12) {
		t.Errorf("q0.25 = %v", Quantile(xs, 0.25))
	}
}

func TestScalerRoundTrip(t *testing.T) {
	rows := [][]float64{{1, 100}, {2, 200}, {3, 300}, {4, 400}}
	s := FitScaler(rows)
	work := [][]float64{{1, 100}, {2, 200}, {3, 300}, {4, 400}}
	s.TransformAll(work)
	// Standardized columns: mean ~0, std ~1.
	for j := 0; j < 2; j++ {
		var a Accumulator
		for _, row := range work {
			a.Add(row[j])
		}
		if !almostEqual(a.Mean(), 0, 1e-12) || !almostEqual(a.StdDev(), 1, 1e-12) {
			t.Errorf("col %d standardized mean/std = %v/%v", j, a.Mean(), a.StdDev())
		}
	}
	// Undoing the standardization with the fitted parameters gives the row back.
	for j, want := range rows[2] {
		if got := work[2][j]*s.Stds[j] + s.Means[j]; !almostEqual(got, want, 1e-9) {
			t.Errorf("col %d: inverse = %v, want %v", j, got, want)
		}
	}
}

func TestScalerConstantColumn(t *testing.T) {
	rows := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s := FitScaler(rows)
	out := s.Transform([]float64{5, 2})
	if out[0] != 0 {
		t.Errorf("constant column should transform to 0, got %v", out[0])
	}
}

func TestArgsortDesc(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	idx := ArgsortDesc(xs)
	want := []int{4, 2, 0, 1, 3} // stable: ties keep original order
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("ArgsortDesc = %v, want %v", idx, want)
		}
	}
}

func TestAccumulatorPropertyMeanBounded(t *testing.T) {
	// Property: mean always lies within [min, max].
	f := func(raw []float64) bool {
		var a Accumulator
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			a.Add(x)
			lo, hi = min(lo, x), max(hi, x)
		}
		if lo > hi {
			return true
		}
		return a.Mean() >= lo-1e-9 && a.Mean() <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVariancePropertyNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		var a Accumulator
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			a.Add(x)
		}
		return a.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i))
	}
}

func BenchmarkScalerTransform(b *testing.B) {
	r := rng.New(1)
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = make([]float64, 30)
		for j := range rows[i] {
			rows[i][j] = r.Normal()
		}
	}
	s := FitScaler(rows)
	row := make([]float64, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(row, rows[i%100])
		s.Transform(row)
	}
}
