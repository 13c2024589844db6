package lifecycle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/parallel"
)

// challengerConfig maps the loop's algo name onto a trainer config.
func challengerConfig(algo string, seed uint64) core.ClassifierConfig {
	switch algo {
	case "nb":
		return core.ClassifierConfig{Algo: core.AlgoBayes}
	case "svm":
		return core.PaperSVM(seed)
	case "stack":
		// A lighter SVM base than the paper's C=1000: the stack retrains
		// inside the serving loop, so fit time matters more than the
		// last fraction of a percent the huge C buys offline.
		return core.ClassifierConfig{Algo: core.AlgoStack, Stack: ensemble.Config{
			Seed:   seed,
			Forest: forest.Config{Trees: 40, Seed: seed},
			SVM:    svm.Config{Kernel: svm.RBF{Gamma: 0.1}, C: 10, Probability: true, Seed: seed},
		}}
	default:
		return core.ClassifierConfig{Algo: core.AlgoForest, Forest: forest.Config{Trees: 50, Seed: seed}}
	}
}

// baselineBlock is how many rows one parallel task of BaselineFor
// predicts.
const baselineBlock = 128

// BaselineFor freezes a drift baseline from a model's own predictions
// over its (raw) training rows. Rows predict independently (Predict is
// safe for concurrent use and pools its scratch), so they run in
// parallel blocks, each row's label in its own slot.
func BaselineFor(d *dataset.Dataset, model *core.JobClassifier, bins int) (*Baseline, error) {
	preds := make([]string, d.Len())
	classes := model.Classes()
	err := parallel.Blocks(0, d.Len(), baselineBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			preds[i] = classes[model.Predict(d.X[i])]
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lifecycle: baseline predictions: %w", err)
	}
	return NewBaseline(d, preds, classes, bins)
}

// TrainChallenger fits a challenger on a labeled sliding window,
// holding out every fifth row as the promotion gate's evaluation
// window, and rebuilds the drift baseline from the challenger's view
// of its own training rows.
func TrainChallenger(featNames []string, rows [][]float64, labels []string, cfg Config) (TrainResult, error) {
	if len(rows) < 16 {
		return TrainResult{}, fmt.Errorf("lifecycle: %d window rows is too few to retrain", len(rows))
	}
	full, err := dataset.New(featNames, rows, labels)
	if err != nil {
		return TrainResult{}, fmt.Errorf("lifecycle: challenger window: %w", err)
	}
	var trainIdx, evalIdx []int
	for i := 0; i < full.Len(); i++ {
		if i%5 == 4 {
			evalIdx = append(evalIdx, i)
		} else {
			trainIdx = append(trainIdx, i)
		}
	}
	trainDS, evalDS := full.Subset(trainIdx), full.Subset(evalIdx)
	model, err := core.TrainJobClassifier(trainDS, challengerConfig(cfg.Algo, cfg.Seed))
	if err != nil {
		return TrainResult{}, fmt.Errorf("lifecycle: challenger train: %w", err)
	}
	base, err := BaselineFor(trainDS, model, cfg.Bins)
	if err != nil {
		return TrainResult{}, err
	}
	return TrainResult{Model: model, Eval: evalDS, Baseline: base}, nil
}
