package compile_test

import (
	"sync"
	"testing"

	"repro/internal/ml/bayes"
	"repro/internal/ml/compile"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/testkit"
)

// The interpreted-vs-compiled microbenchmarks are the human-facing
// ratio check (no CI floor holds it); compare revisions with
// `make bench BENCH_COUNT=10` plus benchstat (see EXPERIMENTS.md).

var benchModels struct {
	once  sync.Once
	err   error
	rows  [][]float64
	pairs map[string]*fuzzPair
}

func benchSetup(b *testing.B) (map[string]*fuzzPair, [][]float64) {
	b.Helper()
	benchModels.once.Do(func() {
		d := testkit.SynthClassification(testkit.SynthConfig{Seed: 42, Classes: 4, Features: 8, RowsPerCls: 30})
		benchModels.rows = d.X[:64]
		benchModels.pairs = make(map[string]*fuzzPair, 3)
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
		for name, im := range map[string]interpreted{"Forest": rf, "SVM": sv, "Bayes": nb} {
			cm, err := compile.Compile(im)
			if err != nil {
				benchModels.err = err
				return
			}
			benchModels.pairs[name] = &fuzzPair{im: im, cm: cm}
		}
	})
	if benchModels.err != nil {
		b.Fatal(benchModels.err)
	}
	return benchModels.pairs, benchModels.rows
}

func BenchmarkPredictProb(b *testing.B) {
	pairs, rows := benchSetup(b)
	for _, name := range []string{"Forest", "SVM", "Bayes"} {
		p := pairs[name]
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
	pairs, rows := benchSetup(b)
	for _, name := range []string{"Forest", "SVM", "Bayes"} {
		p := pairs[name]
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
