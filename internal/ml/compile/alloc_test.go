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

// allocModels trains and compiles one model per family once; the alloc
// tests share them so the gate stays fast.
var allocModels struct {
	once   sync.Once
	err    error
	rows   [][]float64
	models map[string]compile.Model
}

func compiledModels(t *testing.T) (map[string]compile.Model, [][]float64) {
	t.Helper()
	allocModels.once.Do(func() {
		d := testkit.SynthClassification(testkit.SynthConfig{Seed: 7, Classes: 3, Features: 6, RowsPerCls: 15})
		allocModels.rows = d.X[:16]
		allocModels.models = make(map[string]compile.Model, 3)
		rf, err := forest.TrainClassifier(d, forest.Config{Trees: 20, Seed: 7})
		if err != nil {
			allocModels.err = err
			return
		}
		sv, err := svm.Train(d, svm.Config{Kernel: svm.RBF{Gamma: 0.1}, C: 10, Probability: true, Seed: 7})
		if err != nil {
			allocModels.err = err
			return
		}
		nb, err := bayes.Train(d)
		if err != nil {
			allocModels.err = err
			return
		}
		for name, m := range map[string]any{"forest": rf, "svm": sv, "bayes": nb} {
			cm, err := compile.Compile(m)
			if err != nil {
				allocModels.err = err
				return
			}
			allocModels.models[name] = cm
		}
	})
	if allocModels.err != nil {
		t.Fatal(allocModels.err)
	}
	return allocModels.models, allocModels.rows
}

// assertZeroAllocs fails unless fn performs zero heap allocations per
// invocation (AllocsPerRun warms fn up once first, so lazily-grown
// internals are fine; steady-state must be clean).
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, fn); avg != 0 {
		t.Errorf("%s: %.2f allocs per run, want 0", name, avg)
	}
}

// TestAllocCompiledPredict gates the tentpole invariant: every compiled
// model family classifies a row — label and posterior — with zero heap
// allocations, both for a single row and across a batch of rows, and so
// does the SVM's row block.
func TestAllocCompiledPredict(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector allocations; the alloc gate runs without -race")
	}
	models, rows := compiledModels(t)
	for name, cm := range models {
		s := cm.NewScratch()
		row := rows[0]
		assertZeroAllocs(t, name+"/Predict/single", func() {
			_ = cm.Predict(row, s)
		})
		assertZeroAllocs(t, name+"/PredictProb/single", func() {
			_, _ = cm.PredictProb(row, s)
		})
		assertZeroAllocs(t, name+"/Predict/batch", func() {
			for _, r := range rows {
				_ = cm.Predict(r, s)
			}
		})
		assertZeroAllocs(t, name+"/PredictProb/batch", func() {
			for _, r := range rows {
				_, _ = cm.PredictProb(r, s)
			}
		})
	}
	sv := models["svm"].(*compile.SVM)
	bs := sv.NewBlockScratch()
	assertZeroAllocs(t, "svm/PredictProbBlock/single", func() {
		_, _ = sv.PredictProbBlock(rows[:compile.BlockRows], bs)
	})
	assertZeroAllocs(t, "svm/PredictProbBlock/batch", func() {
		for i := 0; i+compile.BlockRows <= len(rows); i += compile.BlockRows {
			_, _ = sv.PredictProbBlock(rows[i:i+compile.BlockRows], bs)
		}
	})
}
