package core

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/ml/bayes"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/eval"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/stats"
)

// classifierSnapshot is the on-disk form of a JobClassifier: feature
// layout, scaler parameters, and the model family's own binary snapshot.
type classifierSnapshot struct {
	Algo     Algorithm
	Features []string
	Means    []float64
	Stds     []float64
	Model    []byte
}

// Save writes a trained classifier to w. The restored classifier predicts
// identically; training-side state (e.g. the forest's OOB bookkeeping
// behind Importance) is not retained.
func (c *JobClassifier) Save(w io.Writer) error {
	m, ok := c.model.(encoding.BinaryMarshaler)
	if !ok {
		return fmt.Errorf("core: cannot serialize model type %T", c.model)
	}
	modelBytes, err := m.MarshalBinary()
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(classifierSnapshot{
		Algo:     c.Algo,
		Features: c.Features,
		Means:    c.scaler.Means,
		Stds:     c.scaler.Stds,
		Model:    modelBytes,
	})
}

// LoadJobClassifier restores a classifier saved with Save. The snapshot
// is outside input: one whose model fails structural validation, or
// whose scaler or model disagrees with its feature list, is an error.
func LoadJobClassifier(r io.Reader) (*JobClassifier, error) {
	var snap classifierSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, err
	}
	var model interface {
		eval.ProbClassifier
		encoding.BinaryUnmarshaler
	}
	switch snap.Algo {
	case AlgoSVM:
		model = &svm.Model{}
	case AlgoForest:
		model = &forest.Classifier{}
	case AlgoBayes:
		model = &bayes.Model{}
	case AlgoStack:
		model = &ensemble.Model{}
	default:
		return nil, fmt.Errorf("core: snapshot has unknown algorithm %q", snap.Algo)
	}
	if err := model.UnmarshalBinary(snap.Model); err != nil {
		return nil, err
	}
	return newJobClassifier(snap.Algo, snap.Features, stats.RestoreScaler(snap.Means, snap.Stds), model)
}

// SaveBytes is a convenience wrapper returning the serialized classifier.
func (c *JobClassifier) SaveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
