package lifecycle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
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

// BaselineFor freezes a drift baseline from a model's own predictions
// over its (raw) training rows.
func BaselineFor(d *dataset.Dataset, model *core.JobClassifier, bins int) (*Baseline, error) {
	preds := make([]string, d.Len())
	classes := model.Classes()
	for i, row := range d.X {
		preds[i] = classes[model.Predict(row)]
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
