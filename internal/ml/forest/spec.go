package forest

import (
	"bytes"
	"encoding/gob"
)

// NodeSpec is one tree node in the flattened representation. Feature < 0
// marks a leaf; a split sends x left when x[Feature] <= Threshold. Pred
// is the majority class at the node (classification), Value the mean
// target (regression).
type NodeSpec struct {
	Feature   int
	Threshold float64
	Left      int32 // child indices into the tree's node array
	Right     int32
	Pred      int
	Value     float64
}

// Spec is the one structural form of a trained classifier: class
// vocabulary plus every tree's node array in builder (preorder) layout,
// node 0 being the root. It is what TrainClassifier grows, what the
// interpreted predictors walk, what MarshalBinary gob-encodes and what
// internal/ml/compile lowers into its breadth-first serving form. gob
// matches struct fields by name, so the field names of Spec and NodeSpec
// are the wire format: renaming one orphans every saved model. A Spec
// handed out by Classifier.Spec is the classifier's own storage; callers
// must not mutate it.
type Spec struct {
	Classes []string
	Trees   [][]NodeSpec
}

// Spec returns the trained structure for the compile step.
func (c *Classifier) Spec() *Spec { return &c.spec }

// MarshalBinary gob-encodes the classifier's Spec. The training data
// reference is not part of it, so OOB estimates and permutation
// importance are unavailable on a restored model (predictions are
// identical).
func (c *Classifier) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c.spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a classifier saved with MarshalBinary. On
// error c is left untouched.
func (c *Classifier) UnmarshalBinary(data []byte) error {
	var spec Spec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		return err
	}
	*c = Classifier{spec: spec}
	return nil
}
