package lariat_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/lariat"
)

// FuzzMatch drives the Lariat matcher with arbitrary launch records. The
// matcher must never panic and must only ever answer with a catalogue
// application name, Uncategorized, or NA — and NA exactly when there is
// no usable launch record.
func FuzzMatch(f *testing.F) {
	f.Add("1234", "/opt/apps/vasp/bin/vasp", "user1")
	f.Add("1", "/opt/apps/namd/NAMD2", "u")
	f.Add("2", "/home/u/a.out", "u")
	f.Add("3", "", "u")
	f.Add("", "/opt/apps/../etc/passwd", "")
	f.Fuzz(func(t *testing.T, jobID, execPath, user string) {
		catalog := apps.Catalog()
		known := map[string]bool{lariat.Uncategorized: true, lariat.NA: true}
		for _, a := range catalog {
			known[a.Name] = true
		}
		m := lariat.NewMatcher(catalog)
		rec := &lariat.Record{JobID: jobID, ExecPath: execPath, User: user}
		got := m.Match(rec)
		if !known[got] {
			t.Fatalf("Match returned %q, not a catalogue app or sentinel", got)
		}
		if execPath == "" && got != lariat.NA {
			t.Fatalf("empty exec path matched %q, want NA", got)
		}
		if execPath != "" && got == lariat.NA {
			t.Fatalf("non-empty exec path %q answered NA", execPath)
		}

		// The generated-job join is Match on the job's launch path.
		job := &cluster.Job{ID: jobID, User: user, App: &apps.App{ExecPath: execPath}}
		if lbl, _ := m.LabelJob(job); lbl != got {
			t.Fatalf("LabelJob %q disagrees with Match %q", lbl, got)
		}
	})
}
