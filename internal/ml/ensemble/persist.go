package ensemble

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/ml/bayes"
	"repro/internal/ml/eval"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
)

// Persistence reuses each base learner's own wire format: the snapshot
// stores the canonical base names plus their MarshalBinary payloads and
// the meta weights, so a restored stack predicts bit-identically.

type modelSnapshot struct {
	Classes  []string
	Features int
	Bases    []string
	BaseBlob [][]byte
	Meta     [][]float64
}

// MarshalBinary serializes the trained ensemble.
func (m *Model) MarshalBinary() ([]byte, error) {
	snap := modelSnapshot{
		Classes:  m.classes,
		Features: m.features,
		Bases:    m.baseName,
		Meta:     m.meta,
	}
	for i, base := range m.bases {
		enc, ok := base.(interface{ MarshalBinary() ([]byte, error) })
		if !ok {
			return nil, fmt.Errorf("ensemble: base %s is not serializable", m.baseName[i])
		}
		blob, err := enc.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("ensemble: base %s: %w", m.baseName[i], err)
		}
		snap.BaseBlob = append(snap.BaseBlob, blob)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores an ensemble saved with MarshalBinary. The
// snapshot is outside input, so everything a prediction indexes is
// checked here: each base passes the compiler's structural validation
// (internal/ml/compile; the compiled form it yields is the one the
// restored stack predicts through) and shares the stack's class
// vocabulary and feature width, and the meta matrix is classes x
// (bases*classes + 1) of finite weights. On error m is left untouched.
func (m *Model) UnmarshalBinary(data []byte) error {
	var snap modelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return err
	}
	if len(snap.Bases) != len(snap.BaseBlob) {
		return fmt.Errorf("ensemble: snapshot names %d bases but carries %d payloads",
			len(snap.Bases), len(snap.BaseBlob))
	}
	if len(snap.Bases) == 0 {
		return fmt.Errorf("ensemble: snapshot has no base learners")
	}
	bases := make([]eval.ProbClassifier, len(snap.Bases))
	for i, name := range snap.Bases {
		var base interface {
			eval.ProbClassifier
			UnmarshalBinary([]byte) error
		}
		switch name {
		case BaseBayes:
			base = &bayes.Model{}
		case BaseForest:
			base = &forest.Classifier{}
		case BaseSVM:
			base = &svm.Model{}
		default:
			return fmt.Errorf("ensemble: unknown base learner %q in snapshot", name)
		}
		if err := base.UnmarshalBinary(snap.BaseBlob[i]); err != nil {
			return fmt.Errorf("ensemble: base %s: %w", name, err)
		}
		bases[i] = base
	}
	restored, err := newModel(snap.Classes, snap.Features, snap.Bases, bases, snap.Meta)
	if err != nil {
		return err
	}
	k, width := len(snap.Classes), len(bases)*len(snap.Classes)+1
	shaped := len(snap.Meta) == k
	for _, row := range snap.Meta {
		shaped = shaped && len(row) == width
	}
	if !shaped {
		return fmt.Errorf("ensemble: meta matrix is not %d x %d (classes x bases*classes+1)", k, width)
	}
	// Training only ever writes finite weights. A NaN or +Inf one makes
	// every posterior NaN; a -Inf one zeroes its class on every row.
	for c, row := range snap.Meta {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				col := "bias"
				if j < width-1 {
					col = snap.Bases[j/k] + " " + snap.Classes[j%k]
				}
				return fmt.Errorf("ensemble: meta weight of class %q, column %d (%s), is %v, want finite",
					snap.Classes[c], j, col, v)
			}
		}
	}
	*m = *restored
	return nil
}
