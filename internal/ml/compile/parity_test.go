package compile_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/bayes"
	"repro/internal/ml/compile"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/testkit"
)

// interpreted is the subset of the trained-model API the parity checks
// exercise; all three families satisfy it.
type interpreted interface {
	Predict(x []float64) int
	PredictProb(x []float64) (int, []float64)
	Classes() []string
}

// parityData builds a deterministic training set plus probe rows that
// include the training rows, perturbed rows, an all-zero row, and a row
// with NaN/Inf values (the compiled forest's branch arithmetic must
// take the same side of every split as the interpreted walk, NaN
// included).
func parityData(seed uint64) (*dataset.Dataset, [][]float64) {
	d := testkit.SynthClassification(testkit.SynthConfig{Seed: seed, Classes: 3, Features: 5, RowsPerCls: 20})
	probes := make([][]float64, 0, d.Len()+3)
	probes = append(probes, d.X...)
	for i := 0; i < 8; i++ {
		row := append([]float64(nil), d.X[i*3]...)
		for f := range row {
			row[f] *= 1.0 + 0.37*float64(f-i)
		}
		probes = append(probes, row)
	}
	probes = append(probes, make([]float64, d.NumFeatures()))
	odd := make([]float64, d.NumFeatures())
	odd[0] = math.NaN()
	odd[1] = math.Inf(1)
	odd[2] = math.Inf(-1)
	probes = append(probes, odd)
	return d, probes
}

// assertParity checks Predict and PredictProb bit-for-bit over every
// probe row.
func assertParity(t *testing.T, im interpreted, cm compile.Model, probes [][]float64) {
	t.Helper()
	s := cm.NewScratch()
	for ri, row := range probes {
		wantCls := im.Predict(row)
		if got := cm.Predict(row, s); got != wantCls {
			t.Fatalf("row %d: Predict diverged: compiled %d, interpreted %d", ri, got, wantCls)
		}
		wantBest, wantProbs := im.PredictProb(row)
		gotBest, gotProbs := cm.PredictProb(row, s)
		if gotBest != wantBest {
			t.Fatalf("row %d: PredictProb class diverged: compiled %d, interpreted %d", ri, gotBest, wantBest)
		}
		if len(gotProbs) != len(wantProbs) {
			t.Fatalf("row %d: posterior length diverged: compiled %d, interpreted %d", ri, len(gotProbs), len(wantProbs))
		}
		for c := range wantProbs {
			if math.Float64bits(gotProbs[c]) != math.Float64bits(wantProbs[c]) {
				t.Fatalf("row %d: posterior[%d] diverged: compiled %x (%g), interpreted %x (%g)",
					ri, c, math.Float64bits(gotProbs[c]), gotProbs[c],
					math.Float64bits(wantProbs[c]), wantProbs[c])
			}
		}
	}
}

func TestForestParity(t *testing.T) {
	d, probes := parityData(11)
	m, err := forest.TrainClassifier(d, forest.Config{Trees: 40, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := compile.Compile(m)
	if err != nil {
		t.Fatalf("compile forest: %v", err)
	}
	assertParity(t, m, cm, probes)
}

func TestForestParityAfterRestore(t *testing.T) {
	d, probes := parityData(12)
	m, err := forest.TrainClassifier(d, forest.Config{Trees: 25, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &forest.Classifier{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	cm, err := compile.Compile(restored)
	if err != nil {
		t.Fatalf("compile restored forest: %v", err)
	}
	assertParity(t, restored, cm, probes)
}

func TestSVMParity(t *testing.T) {
	t.Run("rbf", func(t *testing.T) {
		d, probes := parityData(21)
		m, err := svm.Train(d, svm.Config{Kernel: svm.RBF{Gamma: 0.1}, C: 10, Probability: true, Seed: 21, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := compile.Compile(m)
		if err != nil {
			t.Fatalf("compile svm: %v", err)
		}
		assertParity(t, m, cm, probes)
	})
}

func TestSVMParityUncalibrated(t *testing.T) {
	// Probability off exercises the steep-logistic fallback in svm.PairProb.
	d, probes := parityData(22)
	m, err := svm.Train(d, svm.Config{Kernel: svm.RBF{Gamma: 0.2}, C: 5, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := compile.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, m, cm, probes)
}

func TestSVMParityAfterRestore(t *testing.T) {
	d, probes := parityData(23)
	m, err := svm.Train(d, svm.Config{Kernel: svm.RBF{Gamma: 0.1}, C: 10, Probability: true, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &svm.Model{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	cm, err := compile.Compile(restored)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, restored, cm, probes)
}

func TestBayesParity(t *testing.T) {
	d, probes := parityData(31)
	m, err := bayes.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := compile.Compile(m)
	if err != nil {
		t.Fatalf("compile nb: %v", err)
	}
	assertParity(t, m, cm, probes)
}

func TestBayesParityAfterRestore(t *testing.T) {
	d, probes := parityData(32)
	m, err := bayes.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &bayes.Model{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	cm, err := compile.Compile(restored)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, restored, cm, probes)
}

func TestCompileRejectsUnknownType(t *testing.T) {
	if _, err := compile.Compile(struct{}{}); err == nil {
		t.Fatal("expected an error compiling an unknown model type")
	}
}

func TestCompileForestRejectsMalformed(t *testing.T) {
	cases := map[string]*forest.Spec{
		"no trees":   {Classes: []string{"a", "b"}},
		"no classes": {Trees: [][]forest.NodeSpec{{{Feature: -1}}}},
		"empty tree": {Classes: []string{"a"}, Trees: [][]forest.NodeSpec{{}}},
		"child out of range": {Classes: []string{"a"}, Trees: [][]forest.NodeSpec{{
			{Feature: 0, Threshold: 1, Left: 1, Right: 9},
			{Feature: -1, Pred: 0},
		}}},
		"cycle": {Classes: []string{"a"}, Trees: [][]forest.NodeSpec{{
			{Feature: 0, Threshold: 1, Left: 0, Right: 1},
			{Feature: -1, Pred: 0},
		}}},
		"shared child": {Classes: []string{"a"}, Trees: [][]forest.NodeSpec{{
			{Feature: 0, Threshold: 1, Left: 1, Right: 1},
			{Feature: -1, Pred: 0},
		}}},
		"leaf class out of vocabulary": {Classes: []string{"a"}, Trees: [][]forest.NodeSpec{{
			{Feature: -1, Pred: 5},
		}}},
	}
	for name, spec := range cases {
		if _, err := compile.CompileForest(spec); err == nil {
			t.Errorf("%s: expected a compile error", name)
		}
	}
}

func TestCompileSVMRejectsMalformed(t *testing.T) {
	kernel := svm.KernelSpec{Name: "rbf", Gamma: 0.1}
	cases := map[string]*svm.Spec{
		"no classes":   {Features: 2, Kernel: kernel},
		"bad features": {Classes: []string{"a", "b"}, Features: 0, Kernel: kernel},
		"no kernel":    {Classes: []string{"a", "b"}, Features: 2},
		"other kernel": {Classes: []string{"a", "b"}, Features: 2, Kernel: svm.KernelSpec{Name: "sigmoid"}},
		"pair class out of range": {Classes: []string{"a", "b"}, Features: 2, Kernel: kernel,
			Pairs: []svm.PairSpec{{I: 0, J: 7}}},
		"sv/coef mismatch": {Classes: []string{"a", "b"}, Features: 2, Kernel: kernel,
			Pairs: []svm.PairSpec{{I: 0, J: 1, SV: [][]float64{{1, 2}}, Coef: []float64{1, 2}}}},
		"ragged sv": {Classes: []string{"a", "b"}, Features: 2, Kernel: kernel,
			Pairs: []svm.PairSpec{{I: 0, J: 1, SV: [][]float64{{1}}, Coef: []float64{1}}}},
		"no pairs": {Classes: []string{"a", "b"}, Features: 2, Kernel: kernel},
		"self pair": {Classes: []string{"a", "b"}, Features: 2, Kernel: kernel,
			Pairs: []svm.PairSpec{{I: 1, J: 1, SV: [][]float64{{1, 2}}, Coef: []float64{1}}}},
		// The longer copy last: sorting pairs by length would hand it the
		// coupling cell the shorter copy wins today.
		"repeated pair": {Classes: []string{"a", "b", "c"}, Features: 2, Kernel: kernel,
			Pairs: []svm.PairSpec{
				{I: 0, J: 1, SV: [][]float64{{1, 2}}, Coef: []float64{1}},
				{I: 0, J: 2, SV: [][]float64{{1, 2}}, Coef: []float64{1}},
				{I: 1, J: 0, SV: [][]float64{{1, 2}, {3, 4}}, Coef: []float64{1, -1}},
			}},
	}
	for name, spec := range cases {
		if _, err := compile.CompileSVM(spec); err == nil {
			t.Errorf("%s: expected a compile error", name)
		}
	}

	// One non-finite field (or a gamma <= 0, which makes the kernel a
	// constant or an overflow) at a time on an otherwise valid calibrated
	// pair: the error names the pair and the field.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name, field string
		edit        func(*svm.Spec)
	}{
		{"NaN gamma", "Gamma NaN", func(s *svm.Spec) { s.Kernel.Gamma = nan }},
		{"zero gamma", "Gamma 0", func(s *svm.Spec) { s.Kernel.Gamma = 0 }},
		{"negative gamma", "Gamma -1,", func(s *svm.Spec) { s.Kernel.Gamma = -1 }},
		{"very negative gamma", "Gamma -1000", func(s *svm.Spec) { s.Kernel.Gamma = -1000 }},
		{"NaN sv value", "pair 0 support vector 1 feature 0", func(s *svm.Spec) { s.Pairs[0].SV[1][0] = nan }},
		{"infinite sv value", "pair 0 support vector 0 feature 1", func(s *svm.Spec) { s.Pairs[0].SV[0][1] = inf }},
		{"NaN coef", "pair 0 Coef[1]", func(s *svm.Spec) { s.Pairs[0].Coef[1] = nan }},
		{"infinite rho", "pair 0 Rho", func(s *svm.Spec) { s.Pairs[0].Rho = -inf }},
		{"NaN Platt A", "pair 0 Platt A NaN", func(s *svm.Spec) { s.Pairs[0].A = nan }},
		{"infinite Platt B", "B +Inf", func(s *svm.Spec) { s.Pairs[0].B = inf }},
	} {
		spec := &svm.Spec{Classes: []string{"a", "b"}, Features: 2, Kernel: kernel,
			Pairs: []svm.PairSpec{{I: 0, J: 1, SV: [][]float64{{1, 2}, {3, 4}}, Coef: []float64{1, -1},
				Rho: 0.5, A: -2, B: 0.1, HasAB: true}}}
		if _, err := compile.CompileSVM(spec); err != nil {
			t.Fatalf("%s: the unedited spec is refused: %v", c.name, err)
		}
		c.edit(spec)
		if _, err := compile.CompileSVM(spec); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.field)
		}
	}
}

func TestCompileBayesRejectsMalformed(t *testing.T) {
	cases := map[string]*bayes.Spec{
		"no classes": {},
		"table class mismatch": {Classes: []string{"a", "b"}, Priors: []float64{1},
			Means: [][]float64{{1}, {1}}, Vars: [][]float64{{1}, {1}}, Trained: []bool{true, true}},
		"ragged rows": {Classes: []string{"a", "b"}, Priors: []float64{1, 1},
			Means: [][]float64{{1, 2}, {1}}, Vars: [][]float64{{1, 1}, {1, 1}}, Trained: []bool{true, true}},
		"no trained class": {Classes: []string{"a", "b"}, Priors: []float64{1, 1},
			Means: [][]float64{{1}, {1}}, Vars: [][]float64{{1}, {1}}, Trained: []bool{false, false}},
		"zero variance": {Classes: []string{"a", "b"}, Priors: []float64{1, 1},
			Means: [][]float64{{1}, {1}}, Vars: [][]float64{{1}, {0}}, Trained: []bool{true, true}},
		"NaN variance": {Classes: []string{"a", "b"}, Priors: []float64{1, 1},
			Means: [][]float64{{1}, {1}}, Vars: [][]float64{{math.NaN()}, {1}}, Trained: []bool{true, true}},
		"NaN mean": {Classes: []string{"a", "b"}, Priors: []float64{1, 1},
			Means: [][]float64{{1}, {math.NaN()}}, Vars: [][]float64{{1}, {1}}, Trained: []bool{true, true}},
		"infinite mean": {Classes: []string{"a", "b"}, Priors: []float64{1, 1},
			Means: [][]float64{{math.Inf(-1)}, {1}}, Vars: [][]float64{{1}, {1}}, Trained: []bool{true, true}},
		"NaN prior": {Classes: []string{"a", "b"}, Priors: []float64{math.NaN(), 1},
			Means: [][]float64{{1}, {1}}, Vars: [][]float64{{1}, {1}}, Trained: []bool{true, true}},
		"infinite prior": {Classes: []string{"a", "b"}, Priors: []float64{1, math.Inf(1)},
			Means: [][]float64{{1}, {1}}, Vars: [][]float64{{1}, {1}}, Trained: []bool{true, true}},
	}
	for name, spec := range cases {
		if _, err := compile.CompileBayes(spec); err == nil {
			t.Errorf("%s: expected a compile error", name)
		}
	}
}
