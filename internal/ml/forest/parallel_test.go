package forest

import (
	"runtime"
	"testing"
)

// TestWorkerCountParity: the ensemble, its OOB error and its permutation
// importance are bit-identical whether trees are built serially or on
// many workers, at GOMAXPROCS 1 and 8.
func TestWorkerCountParity(t *testing.T) {
	d := blobs(5, [][]float64{{0, 0, 0}, {3, 1, 0}, {0, 3, 2}}, 0.8, 40)
	ref, err := TrainClassifier(d, Config{Trees: 40, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refErr := ref.OOBError()
	refImp := ref.Importance()
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		for _, w := range []int{0, 3, 16} {
			c, err := TrainClassifier(d, Config{Trees: 40, Seed: 9, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if e := c.OOBError(); e != refErr {
				t.Errorf("GOMAXPROCS=%d workers=%d: OOB error %v != serial %v", procs, w, e, refErr)
			}
			imp := c.Importance()
			for f := range refImp {
				if imp[f] != refImp[f] {
					t.Errorf("GOMAXPROCS=%d workers=%d: importance[%d] = %v != serial %v",
						procs, w, f, imp[f], refImp[f])
				}
			}
			for i := range d.X {
				if c.Predict(d.X[i]) != ref.Predict(d.X[i]) {
					t.Fatalf("GOMAXPROCS=%d workers=%d: prediction diverged on row %d", procs, w, i)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestRegressorWorkerParity mirrors the classifier check for the
// regression forest.
func TestRegressorWorkerParity(t *testing.T) {
	d := blobs(11, [][]float64{{0, 0}, {2, 2}}, 0.5, 50)
	y := make([]float64, d.Len())
	for i, row := range d.X {
		y[i] = row[0] + 2*row[1]
	}
	ref, err := TrainRegressor(d.X, y, Config{Trees: 30, Seed: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 4} {
		m, err := TrainRegressor(d.X, y, Config{Trees: 30, Seed: 4, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := m.OOBR2(), ref.OOBR2(); a != b {
			t.Errorf("workers=%d: OOB R2 %v != serial %v", w, a, b)
		}
		for i := range d.X {
			if m.Predict(d.X[i]) != ref.Predict(d.X[i]) {
				t.Fatalf("workers=%d: prediction diverged on row %d", w, i)
			}
		}
	}
}
