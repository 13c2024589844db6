package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/testkit"
)

// trainCompiledTrio trains one JobClassifier per algorithm on a shared
// synthetic dataset and returns them with held-out probe rows.
func trainCompiledTrio(t *testing.T) (map[Algorithm]*JobClassifier, [][]float64) {
	t.Helper()
	d := testkit.SynthClassification(testkit.SynthConfig{Seed: 91, Classes: 3, Features: 5, RowsPerCls: 20})
	probe := testkit.SynthClassification(testkit.SynthConfig{Seed: 92, Classes: 3, Features: 5, RowsPerCls: 6})
	out := make(map[Algorithm]*JobClassifier, 3)
	for _, cfg := range []ClassifierConfig{
		{Algo: AlgoForest, Forest: forest.Config{Trees: 30, Seed: 91}},
		{Algo: AlgoSVM, SVM: svm.Config{Kernel: svm.RBF{Gamma: 0.1}, C: 10, Probability: true, Seed: 91}},
		{Algo: AlgoBayes},
	} {
		c, err := TrainJobClassifier(d, cfg)
		if err != nil {
			t.Fatalf("train %s: %v", cfg.Algo, err)
		}
		out[cfg.Algo] = c
	}
	return out, probe.X
}

// assertServingParity checks every public prediction entry point of the
// classifier bit-for-bit against its *Interpreted reference.
func assertServingParity(t *testing.T, c *JobClassifier, rows [][]float64) {
	t.Helper()
	for ri, row := range rows {
		if got, want := c.Predict(row), c.PredictInterpreted(row); got != want {
			t.Fatalf("row %d: Predict %d, interpreted %d", ri, got, want)
		}
		gotCls, gotProbs := c.PredictProb(row)
		wantCls, wantProbs := c.PredictProbInterpreted(row)
		if gotCls != wantCls {
			t.Fatalf("row %d: PredictProb class %d, interpreted %d", ri, gotCls, wantCls)
		}
		for i := range wantProbs {
			if math.Float64bits(gotProbs[i]) != math.Float64bits(wantProbs[i]) {
				t.Fatalf("row %d: posterior[%d] = %g, interpreted %g", ri, i, gotProbs[i], wantProbs[i])
			}
		}
		for _, thr := range []float64{0, 0.5, 0.9} {
			gl, gp, gok := c.Classify(row, thr)
			wl, wp, wok := c.ClassifyInterpreted(row, thr)
			if gl != wl || gok != wok || math.Float64bits(gp) != math.Float64bits(wp) {
				t.Fatalf("row %d thr %g: Classify (%q, %g, %v), interpreted (%q, %g, %v)",
					ri, thr, gl, gp, gok, wl, wp, wok)
			}
		}
	}
}

func TestCompiledServingParity(t *testing.T) {
	trio, rows := trainCompiledTrio(t)
	for algo, c := range trio {
		if !c.IsCompiled() {
			t.Fatalf("%s: freshly trained classifier is not compiled", algo)
		}
		assertServingParity(t, c, rows)
	}
}

// TestWrongWidthRowPanicsByName: every family, the stack included,
// refuses a row that is not schema-wide at the classifier's door with a
// panic naming both widths, never an index fault inside a scaler, a
// tree walk or an interpreted model.
func TestWrongWidthRowPanicsByName(t *testing.T) {
	models, rows := trainCompiledTrio(t)
	stack, err := TrainJobClassifier(
		testkit.SynthClassification(testkit.SynthConfig{Seed: 91, Classes: 3, Features: 5, RowsPerCls: 20}),
		ClassifierConfig{Algo: AlgoStack, Forest: forest.Config{Trees: 8}})
	if err != nil {
		t.Fatal(err)
	}
	models[AlgoStack] = stack

	short, long := rows[0][:4], append(append([]float64(nil), rows[0]...), 0)
	for algo, c := range models {
		for _, row := range [][]float64{short, long} {
			want := fmt.Sprintf("core: row has %d values, model expects 5", len(row))
			for name, call := range map[string]func(){
				"Predict":     func() { c.Predict(row) },
				"PredictProb": func() { c.PredictProb(row) },
				"Classify":    func() { c.Classify(row, 0.5) },
				"ClassifyRows": func() {
					c.ClassifyRows([][]float64{rows[1], rows[2], rows[3], row}, 0.5, make([]Verdict, 4))
				},
			} {
				func() {
					defer func() {
						if got := recover(); got != want {
							t.Errorf("%s %s on a %d-wide row: recovered %v, want %q", algo, name, len(row), got, want)
						}
					}()
					call()
				}()
			}
		}
	}
}

// TestAllocStackClassify gates the path a promotion to the stack
// challenger lands serving on: the stack is not a compile.Compile family
// (IsCompiled stays false), but its bases run compiled, so a classified
// row costs the scaled-row copy plus the stack's own posterior and
// nothing per base, tree or support vector.
func TestAllocStackClassify(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector allocations; the alloc gate runs without -race")
	}
	stack, err := TrainJobClassifier(
		testkit.SynthClassification(testkit.SynthConfig{Seed: 91, Classes: 3, Features: 5, RowsPerCls: 20}),
		ClassifierConfig{Algo: AlgoStack, Forest: forest.Config{Trees: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if stack.IsCompiled() {
		t.Fatal("the stack reports the compiled engine; this gate covers the branch that does not")
	}
	_, rows := trainCompiledTrio(t)
	row := rows[0]
	if avg := testing.AllocsPerRun(200, func() {
		_, _, _ = stack.Classify(row, 0.5)
	}); avg > 2 {
		t.Errorf("stack Classify allocates %.2f per row, want <= 2", avg)
	}
}

// TestClassifyRowsMatchesClassify: the batch door answers every row
// exactly as Classify does on that row alone, for every family and at
// batch sizes that leave each remainder of the SVM's row block.
func TestClassifyRowsMatchesClassify(t *testing.T) {
	models, rows := trainCompiledTrio(t)
	stack, err := TrainJobClassifier(
		testkit.SynthClassification(testkit.SynthConfig{Seed: 91, Classes: 3, Features: 5, RowsPerCls: 20}),
		ClassifierConfig{Algo: AlgoStack, Forest: forest.Config{Trees: 8}})
	if err != nil {
		t.Fatal(err)
	}
	models[AlgoStack] = stack
	for algo, c := range models {
		for _, n := range []int{0, 1, 3, 4, 5, 8, 9, len(rows)} {
			for _, thr := range []float64{0, 0.5, 0.9} {
				out := make([]Verdict, n)
				c.ClassifyRows(rows[:n], thr, out)
				for i, got := range out {
					label, prob, ok := c.Classify(rows[i], thr)
					if got.Label != label || got.OK != ok || math.Float64bits(got.Prob) != math.Float64bits(prob) {
						t.Fatalf("%s, %d rows, thr %g, row %d: ClassifyRows %+v, Classify (%q, %g, %v)",
							algo, n, thr, i, got, label, prob, ok)
					}
				}
			}
		}
	}
}

func TestCompiledSurvivesSaveLoad(t *testing.T) {
	trio, rows := trainCompiledTrio(t)
	for algo, c := range trio {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", algo, err)
		}
		restored, err := LoadJobClassifier(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", algo, err)
		}
		if !restored.IsCompiled() {
			t.Fatalf("%s: restored classifier is not compiled", algo)
		}
		assertServingParity(t, restored, rows)
		// Restored and original must also agree with each other.
		for ri, row := range rows {
			_, a := c.PredictProb(row)
			_, b := restored.PredictProb(row)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("%s row %d: restored posterior[%d] %g, original %g", algo, ri, i, b[i], a[i])
				}
			}
		}
	}
}

func TestManagerSwapPublishesCompiledView(t *testing.T) {
	trio, _ := trainCompiledTrio(t)
	m := NewModelManager(nil)
	if _, err := m.Swap(trio[AlgoForest]); err != nil {
		t.Fatal(err)
	}
	v := m.View()
	if v == nil || !v.Compiled() {
		t.Fatal("swapped view does not report the compiled engine")
	}
}

// TestAllocCompiledClassify gates the serving hot path at the
// JobClassifier layer: Classify and ClassifyRows (scratch pools +
// compiled engine, the SVM's row block included) must not allocate per
// call for any model family.
func TestAllocCompiledClassify(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector allocations; the alloc gate runs without -race")
	}
	trio, rows := trainCompiledTrio(t)
	for algo, c := range trio {
		row := rows[0]
		if avg := testing.AllocsPerRun(200, func() {
			_, _, _ = c.Classify(row, 0.5)
		}); avg != 0 {
			t.Errorf("%s: Classify allocates %.2f per run, want 0", algo, avg)
		}
		if avg := testing.AllocsPerRun(50, func() {
			for _, r := range rows {
				_, _, _ = c.Classify(r, 0.5)
			}
		}); avg != 0 {
			t.Errorf("%s: batch Classify allocates %.2f per run, want 0", algo, avg)
		}
		out := make([]Verdict, len(rows))
		if avg := testing.AllocsPerRun(50, func() {
			c.ClassifyRows(rows, 0.5, out)
		}); avg != 0 {
			t.Errorf("%s: ClassifyRows allocates %.2f per run, want 0", algo, avg)
		}
		// Scoring reads one probability per row out of the scratch: the
		// only allocation is the prediction slice it returns.
		unlabeled := &dataset.Dataset{X: rows}
		if avg := testing.AllocsPerRun(50, func() {
			_ = c.Score(unlabeled)
		}); avg != 1 {
			t.Errorf("%s: Score over %d rows allocates %.2f per run, want 1", algo, len(rows), avg)
		}
	}
}
