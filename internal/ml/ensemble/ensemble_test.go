package ensemble

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/testkit"
)

func synthSmall(t *testing.T) *dataset.Dataset {
	t.Helper()
	return testkit.SynthClassification(testkit.SynthConfig{
		Seed: 11, Classes: 3, Features: 4, RowsPerCls: 24, Spread: 0.4,
	})
}

// unevenSizes are synthUneven's class sizes: every residue mod 4
// appears among the pairwise sums, so the SVM's one-vs-one problems
// have every length mod 4.
var unevenSizes = []int{12, 13, 14, 15, 16, 17, 18}

// synthUneven is a 7-class set with unequal classes (unevenSizes).
func synthUneven(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := testkit.SynthClassification(testkit.SynthConfig{
		Seed: 13, Classes: len(unevenSizes), Features: 5, RowsPerCls: 18, Spread: 0.4,
	})
	var idx []int
	for k, size := range unevenSizes {
		for i := 0; i < size; i++ {
			idx = append(idx, k*18+i)
		}
	}
	return d.Subset(idx)
}

func trainSmall(t *testing.T, cfg Config) *Model {
	t.Helper()
	return trainOn(t, synthSmall(t), cfg)
}

func trainOn(t *testing.T, d *dataset.Dataset, cfg Config) *Model {
	t.Helper()
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return m
}

// digest renders every posterior the model produces on d, losslessly.
func digest(t *testing.T, m *Model, d *dataset.Dataset) string {
	t.Helper()
	rows := make([][]float64, d.Len())
	for i, x := range d.X {
		_, probs := m.PredictProb(x)
		testkit.CheckProbRow(t, probs, 1e-9, "ensemble posterior")
		rows[i] = probs
	}
	return testkit.HashFloats(rows...)
}

func TestStackBeatsChance(t *testing.T) {
	d := synthSmall(t)
	m := trainSmall(t, Config{Seed: 7})
	if got := eval.VoteAccuracy(m, d); got < 0.9 {
		t.Fatalf("stacked training accuracy = %v, want >= 0.9", got)
	}
	if got, want := len(m.Classes()), d.NumClasses(); got != want {
		t.Fatalf("Classes() = %d, want %d", got, want)
	}
	if got, want := m.NumFeatures(), d.NumFeatures(); got != want {
		t.Fatalf("NumFeatures() = %d, want %d", got, want)
	}
}

// TestStackPermutedBasesBitIdentical is the stacking metamorphic
// invariant: the configured base order is presentation, not semantics.
// Every permutation of Bases must produce a bit-identical model.
func TestStackPermutedBasesBitIdentical(t *testing.T) {
	d := synthSmall(t)
	perms := [][]string{
		{"nb", "rf", "svm"},
		{"svm", "nb", "rf"},
		{"rf", "svm", "nb"},
		{"svm", "rf", "nb"},
	}
	var want string
	for i, bases := range perms {
		m := trainSmall(t, Config{Seed: 7, Bases: bases})
		got := digest(t, m, d)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("base order %v digest %s != canonical %s", bases, got, want)
		}
	}
}

func TestStackDeterministicAcrossRuns(t *testing.T) {
	d := synthSmall(t)
	a := digest(t, trainSmall(t, Config{Seed: 7}), d)
	b := digest(t, trainSmall(t, Config{Seed: 7}), d)
	if a != b {
		t.Fatalf("same-seed digests differ: %s vs %s", a, b)
	}
	c := digest(t, trainSmall(t, Config{Seed: 8}), d)
	if a == c {
		t.Fatalf("different seeds produced identical digests (%s)", a)
	}
}

func TestStackSubsetOfBases(t *testing.T) {
	d := synthSmall(t)
	m := trainSmall(t, Config{Seed: 3, Bases: []string{"rf", "nb"}})
	if got := m.baseName; len(got) != 2 || got[0] != "nb" || got[1] != "rf" {
		t.Fatalf("bases = %v, want canonical [nb rf]", got)
	}
	if acc := eval.VoteAccuracy(m, d); acc < 0.85 {
		t.Fatalf("two-base stack accuracy = %v, want >= 0.85", acc)
	}
}

func TestStackConfigErrors(t *testing.T) {
	d := synthSmall(t)
	if _, err := Train(d, Config{Bases: []string{"nb", "nb"}}); err == nil {
		t.Fatal("duplicate base accepted")
	}
	if _, err := Train(d, Config{Bases: []string{"xgboost"}}); err == nil {
		t.Fatal("unknown base accepted")
	}
	tiny := testkit.SynthClassification(testkit.SynthConfig{
		Seed: 1, Classes: 2, Features: 2, RowsPerCls: 1,
	})
	if _, err := Train(tiny, Config{Folds: 5}); err == nil {
		t.Fatal("2 rows across 5 folds accepted")
	}
}

func TestStackRoundTripBitIdentical(t *testing.T) {
	d := synthSmall(t)
	m := trainSmall(t, Config{Seed: 7})
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var back Model
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if a, b := digest(t, m, d), digest(t, &back, d); a != b {
		t.Fatalf("round-trip digest %s != original %s", b, a)
	}
}

func TestStackRejectsCorruptSnapshot(t *testing.T) {
	var m Model
	if err := m.UnmarshalBinary([]byte("not a gob stream")); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestStackRejectsNonFiniteMeta: a restored meta weight that is NaN or
// +Inf turns every posterior into NaN, and -Inf silently zeroes a class,
// so the loader refuses each one and names where it sits.
func TestStackRejectsNonFiniteMeta(t *testing.T) {
	blob, err := trainSmall(t, Config{Seed: 7}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var snap modelSnapshot
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		snap.Meta[1][2] = v
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		var m Model
		err := m.UnmarshalBinary(buf.Bytes())
		if err == nil {
			t.Fatalf("meta weight %v accepted", v)
		}
		// Column 2 of a 3-class nb+rf+svm stack is nb's third class.
		for _, want := range []string{`class "class01"`, `column 2 (nb class02)`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("meta weight %v: error %q does not name %s", v, err, want)
			}
		}
		if m.meta != nil {
			t.Errorf("meta weight %v: refused snapshot left the model changed", v)
		}
	}
}

func TestSoftmaxIntoSumsToOne(t *testing.T) {
	w := [][]float64{{1, -2, 0.5}, {-1, 3, 0}, {0, 0, -0.5}}
	out := make([]float64, 3)
	softmaxInto(w, []float64{0.2, 0.8}, out)
	var sum float64
	for _, p := range out {
		if p <= 0 || math.IsNaN(p) {
			t.Fatalf("non-positive softmax output %v", out)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
}
