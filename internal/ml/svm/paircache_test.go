package svm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/testkit"
)

// unbalanced keeps the first counts[k] rows of class k of a synthetic
// dataset generated with max(counts) rows per class, standardized.
func unbalanced(seed uint64, counts []int) *dataset.Dataset {
	most := 0
	for _, c := range counts {
		most = max(most, c)
	}
	d := testkit.SynthClassification(testkit.SynthConfig{Seed: seed, Classes: len(counts), RowsPerCls: most, Spread: 4})
	var keep []int
	for k, c := range counts {
		for i := 0; i < c; i++ {
			keep = append(keep, k*most+i)
		}
	}
	d = d.Subset(keep)
	d.Standardize()
	return d
}

// TestGoldenUnbalanced30 pins every trained number of a 30-class,
// heavily unbalanced, Platt-calibrated model: per pair, a digest over
// Coef, Rho, A and B and one over the support vectors. The class sizes
// run from 1 to 89 rows, so the pairs cover the n < 2*probabilityCV
// path, folds that hold out a whole class, and ordinary folds. The
// golden was written by the per-solve-cache trainer that preceded the
// shared pair cache; it is the proof that sharing changed no bit.
func TestGoldenUnbalanced30(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	var counts []int
	for len(counts) < 30 {
		counts = append(counts, sizes...)
	}
	d := unbalanced(28, counts)
	cfg := PaperConfig()
	cfg.Seed = 28
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	testkit.Section(&b, "30-class unbalanced SVM / RBF gamma=0.1 C=1000 / synth seed 28")
	for _, p := range m.Spec().Pairs {
		if !p.HasAB {
			t.Fatalf("pair %d-%d is not calibrated", p.I, p.J)
		}
		fmt.Fprintf(&b, "%02d-%02d svs=%d machine=%s sv=%s\n", p.I, p.J, len(p.SV),
			testkit.HashFloats(p.Coef, []float64{p.Rho, p.A, p.B}), testkit.HashFloats(p.SV...))
	}
	testkit.GoldenString(t, "unbalanced30.golden", b.String())
}
