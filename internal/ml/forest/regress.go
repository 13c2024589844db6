package forest

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// Regressor is a trained random-forest regressor (variance-reduction
// splits, mean-leaf prediction), used for the paper's application-kernel
// wall-time regression extension.
type Regressor struct {
	cfg   Config
	trees [][]NodeSpec
	oob   [][]int
	x     [][]float64
	y     []float64
}

// TrainRegressor fits a regression forest on rows x with targets y,
// neither holding a NaN.
func TrainRegressor(x [][]float64, y []float64, cfg Config) (*Regressor, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("forest: bad regression inputs (%d rows, %d targets)", len(x), len(y))
	}
	cfg = cfg.withDefaults()
	s, err := newTrainingSet(x, nil, 0, y, cfg)
	if err != nil {
		return nil, err
	}
	m := &Regressor{
		cfg:   cfg,
		trees: make([][]NodeSpec, cfg.Trees),
		oob:   make([][]int, cfg.Trees),
		x:     x,
		y:     y,
	}
	root := rng.New(cfg.Seed)
	if err := parallel.ForEachSeeded(root, cfg.Workers, cfg.Trees, func(t int, r *rng.Rand) error {
		rows, oob := bootstrap(r, len(x))
		m.trees[t] = s.tree(rows, r)
		m.oob[t] = oob
		return nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// Predict returns the ensemble-mean prediction.
func (m *Regressor) Predict(x []float64) float64 {
	var sum float64
	for _, t := range m.trees {
		sum += leaf(t, x).Value
	}
	return sum / float64(len(m.trees))
}

// OOBR2 returns the out-of-bag R-squared ("% variance explained" in the R
// package's summary).
func (m *Regressor) OOBR2() float64 {
	n := len(m.x)
	sums := make([]float64, n)
	counts := make([]int, n)
	for t, tr := range m.trees {
		for _, i := range m.oob[t] {
			sums[i] += leaf(tr, m.x[i]).Value
			counts[i]++
		}
	}
	var mean float64
	for _, v := range m.y {
		mean += v
	}
	mean /= float64(n)
	var ssRes, ssTot float64
	for i := range m.y {
		if counts[i] == 0 {
			continue
		}
		pred := sums[i] / float64(counts[i])
		ssRes += (m.y[i] - pred) * (m.y[i] - pred)
		ssTot += (m.y[i] - mean) * (m.y[i] - mean)
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}
