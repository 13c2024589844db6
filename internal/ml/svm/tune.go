package svm

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Grid is the hyperparameter search space for Tune. Empty slices get the
// libsvm-style default grids.
type Grid struct {
	Gammas []float64
	Cs     []float64
}

// DefaultGrid returns the coarse log-spaced grid commonly used to tune an
// RBF SVM (the process that produced the paper's gamma=0.1, C=1000).
func DefaultGrid() Grid {
	return Grid{
		Gammas: []float64{0.01, 0.03, 0.1, 0.3, 1},
		Cs:     []float64{1, 10, 100, 1000},
	}
}

// TuneResult is one evaluated grid point.
type TuneResult struct {
	Gamma    float64
	C        float64
	Accuracy float64 // mean cross-validated accuracy
}

// Tune grid-searches (gamma, C) for an RBF SVM by k-fold cross-validation
// on the training set and returns every grid point's score sorted best
// first. Probability calibration is disabled during the search (it does
// not affect voting accuracy and triples the cost). Grid points are
// evaluated concurrently on all cores; the fold assignment is fixed
// before the fan-out and every grid point's cross-validation is
// self-contained, so scores are bit-identical to the serial search at
// any GOMAXPROCS.
func Tune(d *dataset.Dataset, grid Grid, folds int, seed uint64) ([]TuneResult, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("svm: empty tuning set")
	}
	if folds < 2 {
		folds = 3
	}
	if len(grid.Gammas) == 0 {
		grid.Gammas = DefaultGrid().Gammas
	}
	if len(grid.Cs) == 0 {
		grid.Cs = DefaultGrid().Cs
	}

	// Stratified fold assignment, fixed across grid points so scores are
	// comparable.
	fold := make([]int, d.Len())
	byClass := make([][]int, d.NumClasses())
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	r := rng.New(seed ^ 0x7d9e)
	for _, idx := range byClass {
		r.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for j, i := range idx {
			fold[i] = j % folds
		}
	}

	// Flatten the grid gamma-major (the historical evaluation order) so
	// the pre-sort result order is stable at any worker count.
	type point struct{ gamma, c float64 }
	pts := make([]point, 0, len(grid.Gammas)*len(grid.Cs))
	for _, gamma := range grid.Gammas {
		for _, c := range grid.Cs {
			pts = append(pts, point{gamma, c})
		}
	}
	results, err := parallel.Map(0, len(pts), func(k int) (TuneResult, error) {
		gamma, c := pts[k].gamma, pts[k].c
		var total, count float64
		for f := 0; f < folds; f++ {
			var trainIdx, testIdx []int
			for i := range fold {
				if fold[i] == f {
					testIdx = append(testIdx, i)
				} else {
					trainIdx = append(trainIdx, i)
				}
			}
			if len(trainIdx) == 0 || len(testIdx) == 0 {
				continue
			}
			m, err := Train(d.Subset(trainIdx), Config{Kernel: RBF{Gamma: gamma}, C: c, Seed: seed})
			if err != nil {
				return TuneResult{}, err
			}
			total += eval.VoteAccuracy(m, d.Subset(testIdx))
			count++
		}
		acc := 0.0
		if count > 0 {
			acc = total / count
		}
		return TuneResult{Gamma: gamma, C: c, Accuracy: acc}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Accuracy > results[j].Accuracy })
	return results, nil
}
