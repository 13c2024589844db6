package svm

import (
	"bytes"
	"encoding/gob"
	"math"
	"strconv"
	"strings"
	"testing"
)

// parentKernelSpec and parentSpec are the wire form of a model saved
// while KernelSpec still carried the polynomial kernel's two parameters.
// gob matches fields by name, so encoding one writes exactly the stream
// an older binary wrote.
type (
	parentKernelSpec struct {
		Name   string
		Gamma  float64
		Coef0  float64
		Degree int
	}
	parentSpec struct {
		Classes  []string
		Features int
		Kernel   parentKernelSpec
		Pairs    []PairSpec
	}
)

// encodeParent gob-encodes s in the older wire form, naming the kernel
// name and filling the two retired fields with their old defaults.
func encodeParent(t *testing.T, s *Spec, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(parentSpec{
		Classes: s.Classes, Features: s.Features, Pairs: s.Pairs,
		Kernel: parentKernelSpec{Name: name, Gamma: s.Kernel.Gamma, Coef0: 1, Degree: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wireModel(t *testing.T) (*Model, [][]float64) {
	t.Helper()
	centers := [][]float64{{0, 3}, {3, 0}, {-3, 0}}
	m, err := Train(blobs(5, centers, 0.8, 20), Config{Kernel: RBF{Gamma: 0.1}, C: 10, Probability: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m, blobs(6, centers, 1.5, 10).X
}

// TestParentKernelSpecDecodes: a model saved with the four-field
// KernelSpec restores onto the posteriors of the same model saved today,
// bit for bit.
func TestParentKernelSpecDecodes(t *testing.T) {
	m, probes := wireModel(t)
	today, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var fromParent, fromToday Model
	if err := fromParent.UnmarshalBinary(encodeParent(t, m.Spec(), "rbf")); err != nil {
		t.Fatalf("the parent's wire form does not decode: %v", err)
	}
	if err := fromToday.UnmarshalBinary(today); err != nil {
		t.Fatal(err)
	}
	for i, x := range probes {
		pc, pp := fromParent.PredictProb(x)
		tc, tp := fromToday.PredictProb(x)
		if pc != tc || fromParent.Predict(x) != fromToday.Predict(x) {
			t.Fatalf("probe %d: parent form picks class %d, today's %d", i, pc, tc)
		}
		for c := range tp {
			if math.Float64bits(pp[c]) != math.Float64bits(tp[c]) {
				t.Fatalf("probe %d class %d: parent form %v, today's %v", i, c, pp[c], tp[c])
			}
		}
	}
}

// TestRetiredKernelsRefused: a snapshot naming a kernel that no longer
// exists is refused, and the error quotes the name.
func TestRetiredKernelsRefused(t *testing.T) {
	m, _ := wireModel(t)
	for _, name := range []string{"linear", "poly"} {
		var restored Model
		err := restored.UnmarshalBinary(encodeParent(t, m.Spec(), name))
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("%s: UnmarshalBinary error %v, want one naming %q", name, err, name)
		}
	}
}
