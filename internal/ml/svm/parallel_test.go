package svm

import (
	"runtime"
	"testing"
)

// TestTrainWorkerParity: the calibrated multiclass model is bit-identical
// whether pair machines are trained serially or on many workers — every
// binary problem is seeded by its pair index, not by scheduling order.
func TestTrainWorkerParity(t *testing.T) {
	d := blobs(3, [][]float64{{0, 0}, {3, 0}, {0, 3}, {3, 3}}, 0.5, 25)
	cfg := Config{Kernel: RBF{Gamma: 0.5}, C: 10, Probability: true, Seed: 7}
	cfg.Workers = 1
	ref, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		for _, w := range []int{0, 3} {
			cfg.Workers = w
			m, err := Train(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range d.X {
				ca, pa := ref.PredictProb(row)
				cb, pb := m.PredictProb(row)
				if ca != cb {
					t.Fatalf("GOMAXPROCS=%d workers=%d: class diverged on row %d", procs, w, i)
				}
				for c := range pa {
					if pa[c] != pb[c] {
						t.Fatalf("GOMAXPROCS=%d workers=%d: posterior[%d] diverged on row %d: %v vs %v",
							procs, w, c, i, pa[c], pb[c])
					}
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestTuneWorkerParity: the grid search returns identical scores and
// ordering at any worker count (Tune runs GOMAXPROCS workers).
func TestTuneWorkerParity(t *testing.T) {
	d := blobs(9, [][]float64{{0, 0}, {2.5, 2.5}}, 0.7, 30)
	grid := Grid{Gammas: []float64{0.1, 1}, Cs: []float64{1, 10}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref, err := Tune(d, grid, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		runtime.GOMAXPROCS(w)
		got, err := Tune(d, grid, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results, want %d", w, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d: result[%d] = %+v, want %+v", w, i, got[i], ref[i])
			}
		}
	}
}
