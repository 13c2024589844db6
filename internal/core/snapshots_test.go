package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/forest"
	"repro/internal/testkit"
)

// snapshotAlgos are the four families with a checked-in fixture under
// testdata/snapshots.
var snapshotAlgos = []core.Algorithm{core.AlgoForest, core.AlgoSVM, core.AlgoBayes, core.AlgoStack}

// snapshotFixture trains the small seeded classifier a fixture was saved
// from and returns the rows its digest is taken over.
func snapshotFixture(t testing.TB, algo core.Algorithm) (*core.JobClassifier, [][]float64) {
	t.Helper()
	cfg := core.PaperSVM(3)
	cfg.Algo = algo
	cfg.Forest = forest.Config{Trees: 12, Seed: 3}
	cfg.Stack = ensemble.Config{Seed: 3, Forest: forest.Config{Trees: 12}}
	c, err := core.TrainJobClassifier(testkit.SynthClassification(testkit.SynthConfig{Seed: 3, RowsPerCls: 20}), cfg)
	if err != nil {
		t.Fatalf("training %s: %v", algo, err)
	}
	return c, testkit.SynthClassification(testkit.SynthConfig{Seed: 4, RowsPerCls: 10}).X
}

// posteriorDigest hashes every posterior c gives rows, bit-exactly.
func posteriorDigest(c *core.JobClassifier, rows [][]float64) string {
	probs := make([][]float64, len(rows))
	for i, row := range rows {
		_, probs[i] = c.PredictProb(row)
	}
	return testkit.HashFloats(probs...)
}

// TestParentSnapshotsLoad is the wire-compatibility obligation of the
// model path: testdata/snapshots/<algo>.bin is snapshotFixture's
// classifier as SaveBytes wrote it at commit c95fae6 -- the last one
// whose families each encoded a private snapshot struct -- and
// <algo>.digest is posteriorDigest of that classifier over the fixture
// rows, written by the same run. The files are never regenerated
// (-update does not touch them): a snapshot an older binary wrote has to
// load here onto the same posteriors, bit for bit. The same digest pins
// this commit's own training and its Save/Load round trip.
func TestParentSnapshotsLoad(t *testing.T) {
	for _, algo := range snapshotAlgos {
		t.Run(string(algo), func(t *testing.T) {
			base := filepath.Join("testdata", "snapshots", string(algo))
			blob, err := os.ReadFile(base + ".bin")
			if err != nil {
				t.Fatal(err)
			}
			digest, err := os.ReadFile(base + ".digest")
			if err != nil {
				t.Fatal(err)
			}
			want := strings.TrimSpace(string(digest))

			fresh, rows := snapshotFixture(t, algo)
			parent, err := core.LoadJobClassifier(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("the parent's snapshot does not load: %v", err)
			}
			if got := posteriorDigest(parent, rows); got != want {
				t.Errorf("parent snapshot scores %s, the parent scored %s", got, want)
			}
			if got := posteriorDigest(fresh, rows); got != want {
				t.Errorf("trained here scores %s, trained at the parent scored %s", got, want)
			}
			saved, err := fresh.SaveBytes()
			if err != nil {
				t.Fatal(err)
			}
			back, err := core.LoadJobClassifier(bytes.NewReader(saved))
			if err != nil {
				t.Fatalf("a snapshot written here does not load: %v", err)
			}
			if got := posteriorDigest(back, rows); got != want {
				t.Errorf("round trip scores %s, want %s", got, want)
			}
		})
	}
}
