package lariat

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
)

func TestMatchCommunityPaths(t *testing.T) {
	m := NewMatcher(apps.Catalog())
	for _, a := range apps.Catalog() {
		if a.ExecPath == "" {
			continue
		}
		got := m.Match(&Record{JobID: "1", ExecPath: a.ExecPath})
		if got != a.Name {
			t.Errorf("Match(%q) = %q, want %q", a.ExecPath, got, a.Name)
		}
	}
}

func TestMatchBasenameOnlyUnderOptApps(t *testing.T) {
	m := NewMatcher(apps.Catalog())
	// A different install of a known code under /opt/apps matches by basename.
	got := m.Match(&Record{ExecPath: "/opt/apps/namd/2.10/bin/namd2"})
	if got != "NAMD" {
		t.Errorf("versioned community install = %q, want NAMD", got)
	}
	// A user binary with the same basename must NOT match.
	got = m.Match(&Record{ExecPath: "/home1/01234/user/bin/namd2"})
	if got != Uncategorized {
		t.Errorf("user-built namd2 = %q, want Uncategorized", got)
	}
}

func TestMatchCaseInsensitiveBasename(t *testing.T) {
	m := NewMatcher(apps.Catalog())
	got := m.Match(&Record{ExecPath: "/opt/apps/namd/2.9/bin/NAMD2"})
	if got != "NAMD" {
		t.Errorf("case-insensitive basename = %q", got)
	}
}

func TestMatchUncategorized(t *testing.T) {
	m := NewMatcher(apps.Catalog())
	for _, p := range []string{"/home1/02044/u/a.out", "/scratch/x/main", "/work/y/data"} {
		if got := m.Match(&Record{ExecPath: p}); got != Uncategorized {
			t.Errorf("Match(%q) = %q, want Uncategorized", p, got)
		}
	}
}

func TestMatchNA(t *testing.T) {
	m := NewMatcher(apps.Catalog())
	if m.Match(nil) != NA {
		t.Error("nil record should be NA")
	}
	if m.Match(&Record{}) != NA {
		t.Error("empty exec path should be NA")
	}
}

// TestLabelJob: the one generated-job join answers what Match answers for
// the job's launch path, NA for a job that left no capture, and the
// catalogue's category for the label (CatUnknown when there is none).
func TestLabelJob(t *testing.T) {
	m := NewMatcher(apps.Catalog())
	vasp, _ := apps.ByName("VASP")
	for _, c := range []struct {
		app             apps.App
		label, category string
	}{
		{vasp, "VASP", string(vasp.Category)},
		{apps.App{Name: "custom-003", Category: apps.CatMD, ExecPath: "/home1/x/a.out"}, Uncategorized, string(apps.CatUnknown)},
		{apps.App{Name: "custom-007", Category: apps.CatMD}, NA, string(apps.CatUnknown)},
	} {
		app := c.app
		label, category := m.LabelJob(&cluster.Job{ID: "100", User: "u", App: &app})
		if label != c.label || category != c.category {
			t.Errorf("LabelJob(%s) = (%q, %q), want (%q, %q)", app.Name, label, category, c.label, c.category)
		}
	}
}
