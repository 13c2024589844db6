package experiments

import (
	"errors"
	"strings"
	"testing"
)

// TestRunSelectedParallelParity runs four cheap experiments through the
// concurrent runner and through the drivers directly on an identically
// seeded environment, and requires bit-identical metrics and rendered
// lines. The two environments are separate so the lazily-built datasets
// regenerate under both schedules.
func TestRunSelectedParallelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are expensive")
	}
	cfg := Config{Seed: 123, TrainPerClass: 20, TestJobs: 300, UnknownJobs: 120}
	ids := []string{"e1", "e2", "table2", "fig1"}

	serial := NewEnv(cfg)
	var want []*Result
	for _, id := range ids {
		driver, _ := ByID(id)
		r, err := driver(serial)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}

	got, err := RunSelected(NewEnv(cfg), ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Wall <= 0 {
			t.Errorf("%s: RunSelected left Wall unset", got[i].ID)
		}
		if got[i].ID != want[i].ID {
			t.Fatalf("result[%d] = %s, want %s (input order must be preserved)", i, got[i].ID, want[i].ID)
		}
		for k, v := range want[i].Metrics {
			if gv, ok := got[i].Metrics[k]; !ok || gv != v {
				t.Errorf("%s: metric %q = %v, want %v", got[i].ID, k, gv, v)
			}
		}
		if a, b := strings.Join(got[i].Lines, "\n"), strings.Join(want[i].Lines, "\n"); a != b {
			t.Errorf("%s: rendered lines diverged", got[i].ID)
		}
	}
}

// TestRunSelectedUnknownID rejects bad ids before any work starts, with
// the error supremm-paper exits 2 on: it names the id and the valid ones.
func TestRunSelectedUnknownID(t *testing.T) {
	_, err := RunSelected(NewEnv(Config{Seed: 1}), []string{"e1", "nope"}, 1)
	if !errors.Is(err, ErrUnknownID) {
		t.Fatalf("RunSelected(nope) = %v, want ErrUnknownID", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"nope"`) || !strings.Contains(msg, strings.Join(IDs(), ", ")) {
		t.Errorf("error %q does not name the id and list the valid ones", msg)
	}
}
