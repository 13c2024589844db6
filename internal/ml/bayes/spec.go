package bayes

import (
	"bytes"
	"encoding/gob"
)

// Spec is the one structural form of a trained Gaussian NB model: what
// Train fills in, what the interpreted predictors read, what
// MarshalBinary gob-encodes and what internal/ml/compile lowers into its
// precomputed log-space serving form. gob matches struct fields by name,
// so these field names are the wire format: renaming one orphans every
// saved model. A Spec handed out by Model.Spec is the model's own
// storage; callers must not mutate it.
type Spec struct {
	Classes []string
	Priors  []float64   // log priors
	Means   [][]float64 // [class][feature]
	Vars    [][]float64 // [class][feature], already floored
	Trained []bool
}

// Spec returns the trained parameters for the compile step.
func (m *Model) Spec() *Spec { return &m.spec }

// MarshalBinary gob-encodes the model's Spec.
func (m *Model) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&m.spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a model saved with MarshalBinary. On error m
// is left untouched.
func (m *Model) UnmarshalBinary(data []byte) error {
	var spec Spec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		return err
	}
	m.spec = spec
	return nil
}
