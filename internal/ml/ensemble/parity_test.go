package ensemble

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/testkit"
)

// referencePredictProb is the stack as it was before it moved onto the
// compiled kernels: every interpreted base's PredictProb, concatenated
// in canonical order, through the softmax meta-learner.
func referencePredictProb(m *Model, x []float64) (int, []float64) {
	nc := len(m.classes)
	row := make([]float64, len(m.bases)*nc)
	for b, base := range m.bases {
		_, probs := base.PredictProb(x)
		copy(row[b*nc:(b+1)*nc], probs)
	}
	probs := make([]float64, nc)
	softmaxInto(m.meta, row, probs)
	best := 0
	for c := 1; c < nc; c++ {
		if probs[c] > probs[best] {
			best = c
		}
	}
	return best, probs
}

func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	back := &Model{}
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	return back
}

// TestStackMatchesInterpretedBases is the tentpole's parity obligation:
// serving through the compiled bases changes no output bit, for a
// trained and a restored model, every base subset, and rows no training
// set contains.
func TestStackMatchesInterpretedBases(t *testing.T) {
	d := synthSmall(t)
	rows := append(append([][]float64(nil), d.X...), hostileRows(d.NumFeatures())...)
	for _, bases := range baseSubsets {
		trained := trainSmall(t, Config{Seed: 7, Bases: bases})
		for name, m := range map[string]*Model{"trained": trained, "restored": roundTrip(t, trained)} {
			for i, x := range rows {
				wantCls, want := referencePredictProb(m, x)
				gotCls, got := m.PredictProb(x)
				if gotCls != wantCls || m.Predict(x) != wantCls {
					t.Fatalf("%s %v row %d: class %d (Predict %d), interpreted bases say %d",
						name, bases, i, gotCls, m.Predict(x), wantCls)
				}
				if len(got) != len(want) {
					t.Fatalf("%s %v row %d: %d posteriors, want %d", name, bases, i, len(got), len(want))
				}
				for c := range want {
					if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
						t.Fatalf("%s %v row %d class %d: %v, interpreted bases say %v",
							name, bases, i, c, got[c], want[c])
					}
				}
			}
		}
	}
}

// TestStackConcurrentPredictMatchesSerial shares one model among 8
// goroutines: the pooled scratches must never leak one row's state into
// another's posterior (run under -race by `make race`).
func TestStackConcurrentPredictMatchesSerial(t *testing.T) {
	d := synthSmall(t)
	m := trainSmall(t, Config{Seed: 7})
	want := digest(t, m, d)
	const goroutines = 8
	got := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows := make([][]float64, d.Len())
			for i, x := range d.X {
				cls, probs := m.PredictProb(x)
				if p := m.Predict(x); p != cls {
					t.Errorf("goroutine %d row %d: Predict %d != PredictProb %d", g, i, p, cls)
				}
				rows[i] = probs
			}
			got[g] = testkit.HashFloats(rows...)
		}(g)
	}
	wg.Wait()
	for g, h := range got {
		if h != want {
			t.Fatalf("goroutine %d digest %s != serial %s", g, h, want)
		}
	}
}

// TestStackTrainsWithSingletonClass pins what Train does when a class
// has a single row: the fold that holds the row out trains its bases
// without that class, and the stack still fits and answers proper
// posteriors. (Train once carried a "fold lost a class" guard that could
// never fire, since Subset keeps the full vocabulary; turning it on
// would have failed lifecycle retrains on rare-class windows.)
func TestStackTrainsWithSingletonClass(t *testing.T) {
	base := synthSmall(t)
	rows := append([][]float64(nil), base.X...)
	labels := make([]string, 0, base.Len()+1)
	for i := range base.X {
		labels = append(labels, base.Label(i))
	}
	rows = append(rows, []float64{9, 9, 9, 9})
	labels = append(labels, "rare")
	d, err := dataset.New(base.FeatureNames, rows, labels)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(d, Config{Seed: 7})
	if err != nil {
		t.Fatalf("Train with a singleton class: %v", err)
	}
	if got := strings.Join(m.Classes(), ","); !strings.Contains(got, "rare") {
		t.Fatalf("Classes() = %s, want the singleton class kept", got)
	}
	for i, x := range append(d.X, hostileRows(d.NumFeatures())[0]) {
		wantCls, want := referencePredictProb(m, x)
		cls, probs := m.PredictProb(x)
		testkit.CheckProbRow(t, probs, 1e-9, "singleton-class stack posterior")
		if cls != wantCls || testkit.HashFloats(probs) != testkit.HashFloats(want) {
			t.Fatalf("row %d: compiled bases (%d, %v) != interpreted (%d, %v)", i, cls, probs, wantCls, want)
		}
	}
}

// benchShape is the bench harness's stackConfig (and the lifecycle
// loop's default challenger): NB + 40-tree RF + RBF gamma=0.1 C=10 SVM.
func benchShape(seed uint64) Config {
	return Config{
		Seed:   seed,
		Forest: forest.Config{Trees: 40, Seed: seed},
		SVM:    svm.Config{Kernel: svm.RBF{Gamma: 0.1}, C: 10, Probability: true, Seed: seed},
	}
}

// TestAllocStackPredictProb gates the stack's serving cost: the
// caller-owned posterior is the only allocation a row makes, and Predict
// makes none.
func TestAllocStackPredictProb(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector allocations; the alloc gate runs without -race")
	}
	d := synthSmall(t)
	m := trainSmall(t, benchShape(7))
	row := d.X[0]
	if avg := testing.AllocsPerRun(200, func() { _, _ = m.PredictProb(row) }); avg > 1 {
		t.Errorf("PredictProb allocates %.2f per row, want <= 1", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { _ = m.Predict(row) }); avg != 0 {
		t.Errorf("Predict allocates %.2f per row, want 0", avg)
	}
}

func BenchmarkStackPredictProb(b *testing.B) {
	d := testkit.SynthClassification(testkit.SynthConfig{
		Seed: 11, Classes: 4, Features: 12, RowsPerCls: 60, Spread: 1.5,
	})
	m, err := Train(d, benchShape(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.PredictProb(d.X[i%d.Len()])
	}
}
