package compile_test

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/bayes"
	"repro/internal/ml/compile"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/testkit"
)

// The interpreted-vs-compiled microbenchmarks are the human-facing
// ratio check (no CI floor holds it); compare revisions with
// `make bench BENCH_COUNT=10` plus benchstat (see EXPERIMENTS.md).

// benchCase is one interpreted model, its compiled lowering and the
// rows both score.
type benchCase struct {
	name string
	fuzzPair
	rows [][]float64
}

var benchModels struct {
	once  sync.Once
	err   error
	cases []benchCase
}

// benchSetup trains the three families at toy size (4 classes x 8
// features, ~6 SVM pairs) plus SVMPaper, an SVM at the shape the server
// pays for: 30 classes x 36 features under svm.PaperConfig, 435 pair
// machines holding 16 276 support-vector entries over 562 unique
// vectors.
func benchSetup(b *testing.B) []benchCase {
	b.Helper()
	benchModels.once.Do(func() {
		d := testkit.SynthClassification(testkit.SynthConfig{Seed: 42, Classes: 4, Features: 8, RowsPerCls: 30})
		paper := testkit.SynthClassification(testkit.SynthConfig{Seed: 42, Classes: 30, Features: 36, RowsPerCls: 40})
		rf, err := forest.TrainClassifier(d, forest.Config{Trees: 60, Seed: 42})
		if err != nil {
			benchModels.err = err
			return
		}
		sv, err := svm.Train(d, svm.Config{Kernel: svm.RBF{Gamma: 0.1}, C: 10, Probability: true, Seed: 42})
		if err != nil {
			benchModels.err = err
			return
		}
		nb, err := bayes.Train(d)
		if err != nil {
			benchModels.err = err
			return
		}
		paperCfg := svm.PaperConfig()
		paperCfg.Seed = 42
		svPaper, err := svm.Train(paper, paperCfg)
		if err != nil {
			benchModels.err = err
			return
		}
		for _, c := range []struct {
			name string
			im   interpreted
			d    *dataset.Dataset
		}{{"Forest", rf, d}, {"SVM", sv, d}, {"SVMPaper", svPaper, paper}, {"Bayes", nb, d}} {
			cm, err := compile.Compile(c.im)
			if err != nil {
				benchModels.err = err
				return
			}
			// Every 18th row walks all classes of either dataset.
			rows := make([][]float64, 0, 64)
			for i := 0; len(rows) < 64; i += 18 {
				rows = append(rows, c.d.X[i%c.d.Len()])
			}
			benchModels.cases = append(benchModels.cases, benchCase{c.name, fuzzPair{im: c.im, cm: cm}, rows})
		}
	})
	if benchModels.err != nil {
		b.Fatal(benchModels.err)
	}
	return benchModels.cases
}

func BenchmarkPredictProb(b *testing.B) {
	for _, p := range benchSetup(b) {
		name, rows := p.name, p.rows
		b.Run(name+"/interpreted", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = p.im.PredictProb(rows[i%len(rows)])
			}
		})
		b.Run(name+"/compiled", func(b *testing.B) {
			s := p.cm.NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = p.cm.PredictProb(rows[i%len(rows)], s)
			}
		})
	}
}

func BenchmarkPredict(b *testing.B) {
	for _, p := range benchSetup(b) {
		name, rows := p.name, p.rows
		b.Run(name+"/interpreted", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p.im.Predict(rows[i%len(rows)])
			}
		})
		b.Run(name+"/compiled", func(b *testing.B) {
			s := p.cm.NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p.cm.Predict(rows[i%len(rows)], s)
			}
		})
	}
}
