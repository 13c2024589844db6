package svm

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
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
	for _, cfg.Workers = range []int{1, 2, 4} {
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
			fmt.Fprintf(&b, "%02d-%02d svs=%d %s\n", p.I, p.J, len(p.SV), pairDigest(p))
		}
		testkit.GoldenString(t, "unbalanced30.golden", b.String())
	}
}

// pairDigest digests every trained number of one machine bit-exactly.
func pairDigest(p PairSpec) string {
	return "machine=" + testkit.HashFloats(p.Coef, []float64{p.Rho, p.A, p.B}) + " sv=" + testkit.HashFloats(p.SV...)
}

// countingKernel is an RBF kernel that counts its evaluations: in total
// (safe across Train's workers) and, when pairs is set, per ordered pair
// of rows, keyed by the rows' storage (single goroutine only).
type countingKernel struct {
	RBF
	total *atomic.Int64
	pairs map[[2]*float64]int
}

func (k countingKernel) Compute(a, b []float64) float64 {
	k.total.Add(1)
	if k.pairs != nil {
		k.pairs[[2]*float64{&a[0], &b[0]}]++
	}
	return k.RBF.Compute(a, b)
}

// twoClasses is the pair problem of two synthetic classes of the given
// sizes, as Train hands it to trainBinary.
func twoClasses(seed uint64, nPos, nNeg int) ([][]float64, []float64) {
	d := unbalanced(seed, []int{nPos, nNeg})
	return pairData(d, identity(nPos), identity(nPos + nNeg)[nPos:])
}

// TestPairKernelEvaluatedOnce: under budget one calibrated pair -- the
// full solve, three fold solves and every held-out decision value --
// evaluates each ordered pair of its rows at most once (the diagonal once
// more, up front). A whole model does the same across all its pairs: a
// class's within-class rows are shared by the k-1 pairs that hold it, so
// no ordered pair of rows is evaluated twice, where the trainer before
// the shared class rows paid for a class's block once per pair.
func TestPairKernelEvaluatedOnce(t *testing.T) {
	x, y := twoClasses(3, 40, 25)
	n := len(x)
	cfg := PaperConfig()
	var total atomic.Int64
	kernel := countingKernel{RBF{Gamma: 0.1}, &total, map[[2]*float64]int{}}
	cfg.Kernel = kernel
	if p := trainBinary(newKernelCache(x, kernel, smoCacheBytes), x, y, 1, 1, cfg, 0); !p.HasAB || len(p.SV) == 0 {
		t.Fatalf("pair did not train: %+v", p)
	}
	checkEvaluatedOnce(t, kernel.pairs)
	if got := int(total.Load()); got > n*n+n {
		t.Errorf("%d evaluations for a %d-row pair, want at most n*n+n = %d", got, n, n*n+n)
	}

	// Counted on the commit before the shared pair cache, and on the
	// commit before the shared class rows, same data and configuration.
	const evalsBefore, evalsPerPairCache = 175559, 82845
	d := unbalanced(6, []int{4, 9, 20, 45, 80, 120})
	n = d.Len()
	cfg = PaperConfig()
	cfg.Seed, cfg.Workers = 6, 1
	total.Store(0)
	kernel.pairs = map[[2]*float64]int{}
	cfg.Kernel = kernel
	if _, err := Train(d, cfg); err != nil {
		t.Fatal(err)
	}
	checkEvaluatedOnce(t, kernel.pairs)
	got := total.Load()
	if got > int64(n*n+n) {
		t.Errorf("whole model took %d kernel evaluations, want at most n*n+n = %d", got, n*n+n)
	}
	t.Logf("whole model: %d kernel evaluations (%d with a cache per pair, %d before that)", got, evalsPerPairCache, evalsBefore)
}

// checkEvaluatedOnce fails if an ordered pair of rows was evaluated more
// than once, or a row against itself more than twice (the diagonal is
// computed up front as well as in its row).
func checkEvaluatedOnce(t *testing.T, pairs map[[2]*float64]int) {
	t.Helper()
	for key, c := range pairs {
		if limit := 1 + b2i(key[0] == key[1]); c > limit {
			t.Fatalf("an ordered pair of rows was evaluated %d times, want at most %d", c, limit)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestPairCacheBudgetParity: a pair trained through a two-row cache --
// every row evicted almost as soon as it is computed, the path a pair at
// paper scale takes once smoCacheBytes runs out -- is bit-identical to
// the pair trained under budget.
func TestPairCacheBudgetParity(t *testing.T) {
	x, y := twoClasses(4, 35, 30)
	n := len(x)
	cfg := PaperConfig()
	var total atomic.Int64
	cfg.Kernel = countingKernel{RBF{Gamma: 0.1}, &total, nil}
	want := trainBinary(newKernelCache(x, cfg.Kernel, smoCacheBytes), x, y, 1, 1, cfg, 1)
	total.Store(0)
	got := trainBinary(newKernelCache(x, cfg.Kernel, 2*8*n), x, y, 1, 1, cfg, 1)
	if pairDigest(got) != pairDigest(want) {
		t.Errorf("two-row budget trained %s, default budget %s", pairDigest(got), pairDigest(want))
	}
	if int(total.Load()) <= n*n+n {
		t.Errorf("two-row budget took %d evaluations: nothing was evicted", total.Load())
	}
}

// TestClassRowBudgetParity: a whole model trained with two-row pair
// caches and a class-row budget of two rows -- both caches evicting
// almost every row as soon as it is computed -- is bit-identical to the
// model trained under the default budgets, and the counts show that
// within-class rows and cross segments were both recomputed.
func TestClassRowBudgetParity(t *testing.T) {
	d := unbalanced(7, []int{3, 8, 15, 30, 40})
	class := map[*float64]int{}
	for i, row := range d.X {
		class[&row[0]] = d.Y[i]
	}
	cfg := PaperConfig()
	cfg.Seed, cfg.Workers = 7, 1
	var total atomic.Int64
	kernel := countingKernel{RBF{Gamma: 0.1}, &total, map[[2]*float64]int{}}
	cfg.Kernel = kernel
	want, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kernel.pairs = map[[2]*float64]int{}
	cfg.Kernel = kernel
	got, err := train(d, cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got.Spec().Pairs {
		if w := want.Spec().Pairs[i]; pairDigest(p) != pairDigest(w) {
			t.Errorf("pair %d-%d: tiny budgets trained %s, default budgets %s", p.I, p.J, pairDigest(p), pairDigest(w))
		}
	}
	var within, cross int
	for key, c := range kernel.pairs {
		if key[0] == key[1] {
			c-- // the diagonal, computed up front
		}
		if c > 1 && class[key[0]] == class[key[1]] {
			within++
		} else if c > 1 {
			cross++
		}
	}
	if within == 0 || cross == 0 {
		t.Errorf("tiny budgets recomputed %d within-class and %d cross-class entries: a cache never evicted", within, cross)
	}
}

// referenceTrainBinary is the trainer the shared cache replaced, kept as
// the oracle: every solve gathers its own rows into its own cache and
// every decision value is PairSpec.decision on the compacted machine.
// It reports how many folds took each decision-value path.
func referenceTrainBinary(x [][]float64, y []float64, cfg Config, seed uint64) (m PairSpec, normal, degenerate int) {
	solve := func(x [][]float64, y []float64) PairSpec {
		k := newKernelCache(x, cfg.Kernel, smoCacheBytes)
		return newPair(x, y, solveSMOGeneral(k, identity(len(x)), y, nil, weightedC(y, cfg.C, 1, 1), cfg.MaxIter))
	}
	m = solve(x, y)
	n := len(x)
	dec := make([]float64, n)
	if n < 2*probabilityCV {
		for i := range x {
			dec[i] = m.decision(cfg.Kernel, x[i])
		}
	} else {
		fold := make([]int, n)
		for i, p := range rng.New(cfg.Seed ^ 0x5eed).Split(seed).Perm(n) {
			fold[p] = i % probabilityCV
		}
		for f := 0; f < probabilityCV; f++ {
			var tx [][]float64
			var ty []float64
			for i := range x {
				if fold[i] != f {
					tx = append(tx, x[i])
					ty = append(ty, y[i])
				}
			}
			machine := &m
			if hasBothClasses(ty) {
				sub := solve(tx, ty)
				machine = &sub
				normal++
			} else {
				degenerate++
			}
			for i := range x {
				if fold[i] == f {
					dec[i] = machine.decision(cfg.Kernel, x[i])
				}
			}
		}
	}
	m.A, m.B = fitSigmoid(dec, y)
	m.HasAB = true
	return m, normal, degenerate
}

// TestDecisionValuePaths: the decision values read from cached
// support-vector rows equal PairSpec.decision on the compacted machine
// bit for bit, on each of the three paths that produce them: an ordinary
// fold, a fold whose training side lost a whole class, and a pair too
// small to fold.
func TestDecisionValuePaths(t *testing.T) {
	cfg := PaperConfig()
	cfg.Seed = 11
	for _, tc := range []struct {
		name               string
		nPos, nNeg         int
		normal, degenerate int
	}{
		{"ordinary folds", 40, 25, 3, 0},
		{"a fold holds out a whole class", 1, 30, 2, 1},
		{"too small to fold", 2, 3, 0, 0},
	} {
		x, y := twoClasses(5, tc.nPos, tc.nNeg)
		want, normal, degenerate := referenceTrainBinary(x, y, cfg, 9)
		if normal != tc.normal || degenerate != tc.degenerate {
			t.Fatalf("%s: %d ordinary and %d degenerate folds, want %d and %d",
				tc.name, normal, degenerate, tc.normal, tc.degenerate)
		}
		got := trainBinary(newKernelCache(x, cfg.Kernel, smoCacheBytes), x, y, 1, 1, cfg, 9)
		if pairDigest(got) != pairDigest(want) {
			t.Errorf("%s: trained %s, reference %s", tc.name, pairDigest(got), pairDigest(want))
		}
	}
}
