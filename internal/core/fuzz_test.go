package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzLoadJobClassifier feeds arbitrary bytes to the model loader. A
// hostile or truncated snapshot must produce an error, never a panic —
// the serving path loads models from disk at startup and on reload. A
// snapshot that does load is fit to serve: classifying a row may
// neither panic nor hang, and the model must round-trip through Save.
func FuzzLoadJobClassifier(f *testing.F) {
	valid, hostile := hostileSnapshots(f)
	for _, blob := range valid {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	for _, blob := range hostile {
		f.Add(blob)
	}
	// What an older binary wrote (see TestParentSnapshotsLoad).
	parent, err := filepath.Glob(filepath.Join("testdata", "snapshots", "*.bin"))
	if err != nil || len(parent) != len(snapshotAlgos) {
		f.Fatalf("parent snapshots: %v (err %v)", parent, err)
	}
	for _, path := range parent {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := core.LoadJobClassifier(bytes.NewReader(data))
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("nil classifier with nil error")
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			c.Classify(make([]float64, len(c.Features)), 0.5)
		}()
		select {
		case <-served:
		case <-time.After(time.Second):
			t.Fatal("a loaded model did not answer one row within 1s")
		}
		blob, err := c.SaveBytes()
		if err != nil {
			// A decoded-but-unsaveable model is tolerable; crashing is not.
			return
		}
		if _, err := core.LoadJobClassifier(bytes.NewReader(blob)); err != nil {
			t.Fatalf("re-saved model failed to load: %v", err)
		}
	})
}
