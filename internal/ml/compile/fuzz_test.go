package compile_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/ml/bayes"
	"repro/internal/ml/compile"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/testkit"
)

// fuzzPair is one interpreted model with its compiled lowering.
type fuzzPair struct {
	im interpreted
	cm compile.Model
}

// fuzzModelCache trains a small model per (family, seed) pair on demand
// and caches it; the fuzzer then only pays training cost once per
// distinct model while exploring the row space freely. Family 3 is not
// trained: it restores one of the hand-built tailShapes, whose pair and
// support-vector counts leave the remainders training rarely does.
var fuzzModelCache struct {
	mu sync.Mutex
	m  map[[2]uint64]*fuzzPair
}

const fuzzFeatures = 4

func fuzzModel(t *testing.T, algo uint8, seed uint64) *fuzzPair {
	t.Helper()
	key := [2]uint64{uint64(algo % 4), seed % 4}
	fuzzModelCache.mu.Lock()
	defer fuzzModelCache.mu.Unlock()
	if fuzzModelCache.m == nil {
		fuzzModelCache.m = make(map[[2]uint64]*fuzzPair)
	}
	if p, ok := fuzzModelCache.m[key]; ok {
		return p
	}
	d := testkit.SynthClassification(testkit.SynthConfig{
		Seed: key[1] + 100, Classes: 3, Features: fuzzFeatures, RowsPerCls: 12,
	})
	var im interpreted
	var err error
	switch key[0] {
	case 0:
		im, err = forest.TrainClassifier(d, forest.Config{Trees: 10, Seed: key[1]})
	case 1:
		im, err = svm.Train(d, svm.Config{Kernel: svm.RBF{Gamma: 0.2}, C: 5, Probability: true, Seed: key[1]})
	case 2:
		im, err = bayes.Train(d)
	default:
		// The first four shapes; calibration varies with the seed.
		im, _ = tailModel(t, tailShapes[key[1]], key[1]%2 == 0, fuzzFeatures)
	}
	if err != nil {
		t.Fatalf("train fuzz model (algo %d, seed %d): %v", key[0], key[1], err)
	}
	cm, err := compile.Compile(im)
	if err != nil {
		t.Fatalf("compile fuzz model (algo %d, seed %d): %v", key[0], key[1], err)
	}
	p := &fuzzPair{im: im, cm: cm}
	fuzzModelCache.m[key] = p
	return p
}

// FuzzCompileParity drives arbitrary feature rows — including NaN, the
// infinities, subnormals, and wild magnitudes — through both the
// interpreted model and its compiled form and requires bit-identical
// labels and posteriors; an SVM's row block is held to the compiled
// row. Any divergence means the lowering changed an operation or its
// order.
func FuzzCompileParity(f *testing.F) {
	f.Add(uint8(0), uint64(0), 1.0, 2.0, 3.0, 4.0)
	f.Add(uint8(1), uint64(1), -1.5, 0.0, 2.5, 1e9)
	f.Add(uint8(2), uint64(2), math.Inf(1), math.Inf(-1), math.NaN(), 0.0)
	f.Add(uint8(0), uint64(3), math.NaN(), -3.25, 5.5, math.SmallestNonzeroFloat64)
	f.Add(uint8(1), uint64(0), 0.1, 0.2, 0.3, 0.4)
	f.Add(uint8(2), uint64(1), -1e300, 1e300, 1e-300, -0.0)
	f.Add(uint8(3), uint64(0), 0.5, -2.0, 1.25, 3.0)
	f.Add(uint8(3), uint64(1), -0.75, math.Inf(1), 1e-9, 4.5)
	f.Fuzz(func(t *testing.T, algo uint8, seed uint64, a, b, c, d float64) {
		p := fuzzModel(t, algo, seed)
		row := []float64{a, b, c, d}
		s := p.cm.NewScratch()
		if got, want := p.cm.Predict(row, s), p.im.Predict(row); got != want {
			t.Fatalf("Predict diverged on %v: compiled %d, interpreted %d", row, got, want)
		}
		gotBest, gotProbs := p.cm.PredictProb(row, s)
		wantBest, wantProbs := p.im.PredictProb(row)
		if gotBest != wantBest {
			t.Fatalf("PredictProb class diverged on %v: compiled %d, interpreted %d", row, gotBest, wantBest)
		}
		if len(gotProbs) != len(wantProbs) {
			t.Fatalf("posterior length diverged on %v: compiled %d, interpreted %d", row, len(gotProbs), len(wantProbs))
		}
		for i := range wantProbs {
			if math.Float64bits(gotProbs[i]) != math.Float64bits(wantProbs[i]) {
				t.Fatalf("posterior[%d] diverged on %v: compiled %g (%x), interpreted %g (%x)",
					i, row, gotProbs[i], math.Float64bits(gotProbs[i]),
					wantProbs[i], math.Float64bits(wantProbs[i]))
			}
		}
		// An SVM also scores the row in a block, beside rearrangements
		// of its values, each row held to PredictProb alone.
		if m, ok := p.cm.(*compile.SVM); ok {
			assertBlockParity(t, m, [][]float64{row, {d, c, b, a}, {a, a, b, b}, {c, d, a, b}, {b, d, a, c}})
		}
	})
}
