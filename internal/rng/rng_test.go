package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split(1)
	c2 := r.Split(2)
	c1again := r.Split(1)
	for i := 0; i < 100; i++ {
		v1 := c1.Uint64()
		if v1 != c1again.Uint64() {
			t.Fatal("Split with same id is not reproducible")
		}
		if v1 == c2.Uint64() {
			t.Fatal("Split with different ids produced identical output")
		}
	}
}

func TestSplitDoesNotPerturbParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(123) // splitting must not consume parent state
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split perturbed parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v]++
	}
	for k := 0; k < 10; k++ {
		if seen[k] < 700 {
			t.Errorf("Intn(10) value %d underrepresented: %d/10000", k, seen[k])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(6)
	n := 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(2, 0.5)
	}
	// median of lognormal is exp(mu)
	count := 0
	for _, v := range vals {
		if v < math.Exp(2) {
			count++
		}
	}
	frac := float64(count) / float64(n)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("lognormal median fraction = %v, want ~0.5", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(8)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(3.5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-3.5) > 0.1 {
		t.Errorf("exponential mean = %v, want ~3.5", mean)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(10)
	for _, tc := range []struct{ shape, scale float64 }{{0.5, 2}, {1, 1}, {3, 2}, {9, 0.5}} {
		n := 100000
		var sum float64
		for i := 0; i < n; i++ {
			v := r.Gamma(tc.shape, tc.scale)
			if v < 0 {
				t.Fatalf("gamma produced negative value %v", v)
			}
			sum += v
		}
		mean := sum / float64(n)
		want := tc.shape * tc.scale
		if math.Abs(mean-want) > 0.05*want+0.02 {
			t.Errorf("gamma(%v,%v) mean = %v, want ~%v", tc.shape, tc.scale, mean, want)
		}
	}
}

func TestBetaRange(t *testing.T) {
	r := New(11)
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		v := r.Beta(2, 5)
		if v < 0 || v > 1 {
			t.Fatalf("beta out of [0,1]: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-2.0/7.0) > 0.01 {
		t.Errorf("beta(2,5) mean = %v, want ~%v", mean, 2.0/7.0)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for trial := 0; trial < 50; trial++ {
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
	}
}

func TestCategoricalRespectWeights(t *testing.T) {
	r := New(14)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	n := 60000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[1])
	}
	frac := float64(counts[2]) / float64(n)
	if math.Abs(frac-0.75) > 0.01 {
		t.Errorf("category 2 fraction = %v, want ~0.75", frac)
	}
}

func TestSamplerMatchesWeights(t *testing.T) {
	r := New(15)
	w := []float64{5, 1, 0, 4}
	s := NewSampler(w)
	counts := make([]int, len(w))
	n := 100000
	for i := 0; i < n; i++ {
		counts[s.Sample(r)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[2])
	}
	for i, want := range []float64{0.5, 0.1, 0, 0.4} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d fraction = %v, want ~%v", i, got, want)
		}
	}
}

func TestSamplerSingleCategory(t *testing.T) {
	s := NewSampler([]float64{2.5})
	r := New(16)
	for i := 0; i < 100; i++ {
		if s.Sample(r) != 0 {
			t.Fatal("single-category sampler returned nonzero index")
		}
	}
}

func TestMul128Property(t *testing.T) {
	// hi:lo must equal a*b for small operands where the product fits 64 bits.
	f := func(a, b uint32) bool {
		hi, lo := mul128(uint64(a), uint64(b))
		return hi == 0 && lo == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMul128HighBits(t *testing.T) {
	hi, lo := mul128(math.MaxUint64, math.MaxUint64)
	// (2^64-1)^2 = 2^128 - 2^65 + 1
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Errorf("mul128(max,max) = (%x,%x)", hi, lo)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(17)
	n := 100000
	c := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			c++
		}
	}
	frac := float64(c) / float64(n)
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) fraction = %v", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal()
	}
}

func BenchmarkSamplerSample(b *testing.B) {
	w := make([]float64, 128)
	for i := range w {
		w[i] = float64(i + 1)
	}
	s := NewSampler(w)
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(r)
	}
}

func TestUint32Int63(t *testing.T) {
	r := New(20)
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint32()] = true
		if v := r.Int63(); v < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
	if len(seen) < 95 {
		t.Errorf("Uint32 produced only %d distinct values of 100", len(seen))
	}
}

func TestSamplerLen(t *testing.T) {
	if NewSampler([]float64{1, 2, 3}).Len() != 3 {
		t.Error("Len wrong")
	}
}

func TestNewSamplerRejectsBadWeights(t *testing.T) {
	for _, w := range [][]float64{{}, {0, 0}, {-1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSampler(%v) should panic", w)
				}
			}()
			NewSampler(w)
		}()
	}
}

func TestSamplerNegativeWeightTreatedAsZero(t *testing.T) {
	s := NewSampler([]float64{-5, 1})
	r := New(21)
	for i := 0; i < 1000; i++ {
		if s.Sample(r) == 0 {
			t.Fatal("negative-weight category sampled")
		}
	}
}

func TestCategoricalPanicsWithoutPositiveWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(22).Categorical([]float64{0, -1})
}

func TestCategoricalSingle(t *testing.T) {
	r := New(23)
	for i := 0; i < 50; i++ {
		if r.Categorical([]float64{0, 3, 0}) != 1 {
			t.Fatal("only positive category must be chosen")
		}
	}
}

func TestGammaPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(25).Gamma(0, 1)
}

func TestIntnLargeBound(t *testing.T) {
	r := New(26)
	const n = 1 << 40
	for i := 0; i < 1000; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}
