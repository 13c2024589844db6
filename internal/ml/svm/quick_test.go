package svm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestCouplePropertySimplex: for any valid pairwise-probability matrix,
// the coupled posteriors form a probability simplex point.
func TestCouplePropertySimplex(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%5) + 2 // 2..6 classes
		r := rng.New(seed)
		m := make([][]float64, k)
		for i := range m {
			m[i] = make([]float64, k)
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				p := 1e-7 + (1-2e-7)*r.Float64()
				m[i][j] = p
				m[j][i] = 1 - p
			}
		}
		probs := coupleMatrix(m)
		var sum float64
		for _, p := range probs {
			if p < -1e-9 || p > 1+1e-9 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestKernelPropertyPSDish: RBF kernel values lie in (0, 1] with
// K(x,x) = 1 and symmetry.
func TestKernelPropertySymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := []float64{r.Normal(), r.Normal(), r.Normal()}
		b := []float64{r.Normal(), r.Normal(), r.Normal()}
		k := RBF{Gamma: 0.5}
		kab, kba := k.Compute(a, b), k.Compute(b, a)
		if kab != kba {
			return false
		}
		if kab <= 0 || kab > 1 {
			return false
		}
		return math.Abs(k.Compute(a, a)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSigmoidPropertyRange: PairProb with a fitted sigmoid maps decision
// values into the clipped range [1e-7, 1-1e-7] for any labeled sample
// with both classes.
func TestSigmoidPropertyRange(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 10
		r := rng.New(seed)
		dec := make([]float64, n)
		y := make([]float64, n)
		for i := range dec {
			dec[i] = r.NormalAt(0, 3)
			if i%2 == 0 {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		a, b := fitSigmoid(dec, y)
		if math.IsNaN(a) || math.IsNaN(b) {
			return false
		}
		for _, fv := range []float64{-10, -1, 0, 1, 10} {
			p := PairProb(fv, a, b, true)
			if p < 1e-7 || p > 1-1e-7 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
