package svm

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Spec is the one structural form of a trained multiclass SVM: what
// Train fills in, what the interpreted predictors read, what
// MarshalBinary gob-encodes and what internal/ml/compile lowers into its
// contiguous serving form. gob matches struct fields by name, so the
// field names of Spec, KernelSpec and PairSpec are the wire format:
// renaming one orphans every saved model. A Spec handed out by
// Model.Spec is the model's own storage; callers must not mutate it.
type Spec struct {
	Classes  []string
	Features int
	Kernel   KernelSpec
	Pairs    []PairSpec
}

// KernelSpec describes a kernel by value. Only RBF has a description
// that restores ("rbf"); a model trained with any other Kernel predicts
// in process but neither saves nor compiles. Older snapshots, whose
// KernelSpec also carried the polynomial kernel's parameters, still
// decode: gob skips stream fields the struct lacks.
type KernelSpec struct {
	Name  string
	Gamma float64
}

// PairSpec is one trained one-vs-one binary machine: support vectors,
// dual coefficients (alpha_i * y_i), the threshold rho, and the Platt
// sigmoid parameters when probability calibration ran. The machine votes
// for class I on a positive decision value.
type PairSpec struct {
	I, J  int
	SV    [][]float64
	Coef  []float64
	Rho   float64
	A, B  float64
	HasAB bool
}

// describeKernel is the KernelSpec of a training-time Kernel. Any kernel
// but RBF is named by its Go type, which kernel cannot restore.
func describeKernel(k Kernel) KernelSpec {
	if rbf, ok := k.(RBF); ok {
		return KernelSpec{Name: "rbf", Gamma: rbf.Gamma}
	}
	return KernelSpec{Name: fmt.Sprintf("%T", k)}
}

// kernel restores the Kernel a description names.
func (s KernelSpec) kernel() (Kernel, error) {
	if s.Name != "rbf" {
		return nil, fmt.Errorf("svm: kernel %q is not rbf, the one kernel a model restores", s.Name)
	}
	return RBF{Gamma: s.Gamma}, nil
}

// Spec returns the trained structure for the compile step.
func (m *Model) Spec() *Spec { return &m.spec }

// FromSpec returns the model a spec describes, sharing its storage. The
// spec is not validated beyond its kernel: structural checks belong to
// internal/ml/compile, the gate every served model passes.
func FromSpec(s *Spec) (*Model, error) {
	kernel, err := s.Kernel.kernel()
	if err != nil {
		return nil, err
	}
	return &Model{spec: *s, kernel: kernel}, nil
}

// MarshalBinary gob-encodes the model's Spec, so a trained classifier
// can be saved once and reloaded by production tooling without
// retraining. A model whose kernel would not restore is refused.
func (m *Model) MarshalBinary() ([]byte, error) {
	if _, err := m.spec.Kernel.kernel(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&m.spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a model saved with MarshalBinary; it predicts
// identically. On error m is left untouched.
func (m *Model) UnmarshalBinary(data []byte) error {
	var spec Spec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		return err
	}
	restored, err := FromSpec(&spec)
	if err != nil {
		return err
	}
	*m = *restored
	return nil
}
