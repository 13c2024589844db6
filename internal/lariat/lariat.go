// Package lariat simulates the Lariat/XALT job-launch capture layer. On the
// TACC machines, Lariat wraps the ibrun MPI launcher and records, for every
// launched job, the executable path and loaded environment modules. SUPReMM
// joins these records with accounting data and matches the executable path
// against a table of known community applications, yielding the three-way
// labeling the paper analyzes:
//
//   - a community-application name when the path matches,
//   - "Uncategorized" when a record exists but the executable is unknown
//     (user-compiled codes named a.out, main, data, ...),
//   - "NA" when the job was launched outside ibrun and no record exists.
package lariat

import (
	"path"
	"strings"

	"repro/internal/apps"
	"repro/internal/cluster"
)

// Labels for jobs that cannot be matched to a community application.
const (
	Uncategorized = "Uncategorized"
	NA            = "NA"
)

// Record is one Lariat launch capture.
type Record struct {
	JobID    string
	ExecPath string
	Modules  []string
	User     string
}

// Matcher matches executable paths against the community-application table.
type Matcher struct {
	byBase map[string]string // executable basename -> application name
	byPath map[string]string // full path -> application name
}

// NewMatcher builds a matcher from the application catalogue.
func NewMatcher(catalog []apps.App) *Matcher {
	m := &Matcher{byBase: map[string]string{}, byPath: map[string]string{}}
	for _, a := range catalog {
		if a.ExecPath == "" {
			continue
		}
		// Only installed software trees participate in basename matching;
		// a user binary that happens to be called "namd2" must not match.
		if strings.HasPrefix(a.ExecPath, "/opt/apps/") {
			m.byBase[strings.ToLower(path.Base(a.ExecPath))] = a.Name
		}
		m.byPath[a.ExecPath] = a.Name
	}
	return m
}

// Match returns the community-application name for a launch record, or
// Uncategorized if the executable is not recognized.
func (m *Matcher) Match(rec *Record) string {
	if rec == nil || rec.ExecPath == "" {
		return NA
	}
	if name, ok := m.byPath[rec.ExecPath]; ok {
		return name
	}
	if strings.HasPrefix(rec.ExecPath, "/opt/apps/") {
		if name, ok := m.byBase[strings.ToLower(path.Base(rec.ExecPath))]; ok {
			return name
		}
	}
	return Uncategorized
}

// LabelJob is the whole Lariat join for one generated job: the label its
// launch capture earns (NA for a job started outside ibrun, which leaves
// no capture) and that label's broad category (apps.CatUnknown when the
// label names no catalogue application). The batch pipeline, the
// on-disk collector and the ingest load generator all label through
// here, so none of them can leak the generator's ground-truth name.
func (m *Matcher) LabelJob(j *cluster.Job) (label, category string) {
	label = m.Match(&Record{JobID: j.ID, ExecPath: j.App.ExecPath, User: j.User})
	if a, ok := apps.ByName(label); ok {
		return label, string(a.Category)
	}
	return label, string(apps.CatUnknown)
}
