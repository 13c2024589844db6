// Package warehouse implements the XDMoD-style data warehouse layer: it
// ingests job accounting records joined with SUPReMM summaries and answers
// the dimensional aggregation queries XDMoD exposes (jobs, CPU hours, wall
// and wait time, broken down by application, broad category, user,
// population, job size bucket, or month). The paper's Table 3 "% mix"
// column is one of these queries.
package warehouse

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/lariat"
	"repro/internal/summarize"
)

// Record is one processed job, the only such type from collector to
// classifier: accounting joined with its SUPReMM summary and
// Lariat-derived application label. The batch pipeline and the ingest
// path both produce it; queries, labelers and featurization consume it.
type Record struct {
	JobID    string
	User     string
	AppLabel string // community app name, "Uncategorized", or "NA"
	Category string // broad category label ("Unknown" for unlabeled jobs)
	Pop      cluster.Population

	Nodes       int
	Cores       int
	Submit      int64
	Start       int64
	WallSeconds float64
	ExitCode    int

	Summary *summarize.Summary
}

// Unlabeled reports whether Lariat could not name the job's application
// (Uncategorized or NA): the population supervised training skips and
// unknown-app discovery exists for.
func (r *Record) Unlabeled() bool {
	return r.AppLabel == lariat.Uncategorized || r.AppLabel == lariat.NA
}

// WaitSeconds returns the queue wait.
func (r *Record) WaitSeconds() float64 { return float64(r.Start - r.Submit) }

// CPUHours returns core-hours consumed.
func (r *Record) CPUHours() float64 {
	return float64(r.Cores) * r.WallSeconds / 3600
}

// Dimension is a grouping axis.
type Dimension string

// The supported grouping dimensions.
const (
	ByApplication Dimension = "application"
	ByCategory    Dimension = "category"
	ByUser        Dimension = "user"
	ByPopulation  Dimension = "population"
	ByJobSize     Dimension = "jobsize"
	ByMonth       Dimension = "month"
)

// Dimensions lists every supported grouping dimension: the set each
// query surface (supremm-serve's API, supremm-report) accepts.
var Dimensions = []Dimension{ByApplication, ByCategory, ByUser, ByPopulation, ByJobSize, ByMonth}

// ParseDimension validates a dimension named by outside input.
func ParseDimension(name string) (Dimension, error) {
	for _, d := range Dimensions {
		if string(d) == name {
			return d, nil
		}
	}
	return "", fmt.Errorf("unknown or missing dimension %q", name)
}

// dimensionKey extracts the group key of a record along a dimension.
func dimensionKey(r *Record, dim Dimension) string {
	switch dim {
	case ByApplication:
		return r.AppLabel
	case ByCategory:
		return r.Category
	case ByUser:
		return r.User
	case ByPopulation:
		return r.Pop.String()
	case ByJobSize:
		return sizeBucket(r.Nodes)
	case ByMonth:
		return time.Unix(r.Start, 0).UTC().Format("2006-01")
	}
	return ""
}

// sizeBucket maps node counts to XDMoD's job-size buckets.
func sizeBucket(nodes int) string {
	switch {
	case nodes <= 1:
		return "1"
	case nodes <= 4:
		return "2-4"
	case nodes <= 16:
		return "5-16"
	case nodes <= 64:
		return "17-64"
	case nodes <= 256:
		return "65-256"
	default:
		return "257+"
	}
}

// Aggregate is the set of metrics XDMoD reports per group.
type Aggregate struct {
	Key         string
	Jobs        int
	CPUHours    float64
	WallHours   float64
	AvgWaitHrs  float64
	AvgNodes    float64
	MixPercent  float64 // share of total jobs, the Table 3 "% mix"
	AvgCPUUser  float64 // mean SUPReMM CPU user fraction (QoS view)
	minWait     float64
	maxWait     float64
	totalWait   float64
	totalNodes  float64
	totalCPUUsr float64
	nSummaries  int
}

// MinWaitHours and MaxWaitHours expose the wait-time extremes.
func (a *Aggregate) MinWaitHours() float64 { return a.minWait / 3600 }

// MaxWaitHours returns the maximum queue wait in hours.
func (a *Aggregate) MaxWaitHours() float64 { return a.maxWait / 3600 }

// The bounds a record must meet to be warehoused. They keep every
// query's arithmetic in range: Utilization walks at most 13 months per
// job, Start+wall and Start-Submit cannot overflow, and Rollup's
// per-record Cores x wall-milliseconds term fits an int64 with room to
// spare. Generated walls stay under a month.
const (
	maxWallSeconds = 366 * 24 * 3600
	maxUnixSeconds = 1 << 40 // about 34 800 years either side of 1970
	maxCores       = 1 << 24
)

// checkRecord is the warehouse's door: Store.Ingest and Sharded.Ingest
// both refuse a record it refuses.
func checkRecord(r *Record) error {
	switch {
	case r.JobID == "":
		return fmt.Errorf("warehouse: record without job id")
	case !(r.WallSeconds >= 0 && r.WallSeconds <= maxWallSeconds):
		return fmt.Errorf("warehouse: job %s: wall time %g s outside [0, %d]", r.JobID, r.WallSeconds, maxWallSeconds)
	case r.Start < -maxUnixSeconds || r.Start > maxUnixSeconds:
		return fmt.Errorf("warehouse: job %s: start %d beyond ±%d", r.JobID, r.Start, int64(maxUnixSeconds))
	case r.Submit < -maxUnixSeconds || r.Submit > maxUnixSeconds:
		return fmt.Errorf("warehouse: job %s: submit %d beyond ±%d", r.JobID, r.Submit, int64(maxUnixSeconds))
	case r.Cores < -maxCores || r.Cores > maxCores:
		return fmt.Errorf("warehouse: job %s: %d cores beyond ±%d", r.JobID, r.Cores, maxCores)
	}
	return nil
}

// Store is the serial warehouse: records in ingest order plus a job-id
// index, with no lock. It is what the batch pipeline fills, and the
// reference Sharded is checked against; the two share no ingest code
// but checkRecord.
type Store struct {
	records Records
	byJobID map[string]*Record
}

// NewStore returns an empty warehouse.
func NewStore() *Store {
	return &Store{byJobID: map[string]*Record{}}
}

// Ingest adds a record; re-ingesting a job id replaces the prior record
// in place, so ingest order is the order of first arrival.
func (s *Store) Ingest(r *Record) error {
	if err := checkRecord(r); err != nil {
		return err
	}
	if old, ok := s.byJobID[r.JobID]; ok {
		for i, rec := range s.records {
			if rec == old {
				s.records[i] = r
				break
			}
		}
	} else {
		s.records = append(s.records, r)
	}
	s.byJobID[r.JobID] = r
	return nil
}

// Lookup returns a record by job id.
func (s *Store) Lookup(jobID string) (*Record, bool) {
	r, ok := s.byJobID[jobID]
	return r, ok
}

// Records returns a copy of the record set, in ingest order.
func (s *Store) Records() Records { return append(Records(nil), s.records...) }

// Store's queries are the record set's, over its records in ingest order.

// Len returns the number of ingested jobs.
func (s *Store) Len() int { return len(s.records) }

// GroupBy aggregates all records along a dimension.
func (s *Store) GroupBy(dim Dimension) []*Aggregate { return s.records.GroupBy(dim) }

// GroupByFiltered aggregates the records matching the predicate.
func (s *Store) GroupByFiltered(dim Dimension, pred func(*Record) bool) []*Aggregate {
	return s.records.GroupByFiltered(dim, pred)
}

// Totals returns machine-wide aggregate metrics.
func (s *Store) Totals() Aggregate { return s.records.Totals() }

// DrillDown groups records by outer, then by inner within each group.
func (s *Store) DrillDown(outer, inner Dimension) []*DrillDownGroup {
	return s.records.DrillDown(outer, inner)
}

// Utilization computes the monthly utilization series.
func (s *Store) Utilization(machineNodes int) []UtilizationPoint {
	return s.records.Utilization(machineNodes)
}

// Rollup totals the records into hourly buckets.
func (s *Store) Rollup() []RollupBucket { return s.records.Rollup() }

// Records is a set of processed jobs in a fixed order, and owns the
// only body of every query: Store answers them over its records in
// ingest order, WarehouseSnapshot over a cut in job-id order. Float
// sums accumulate in slice order, so the same jobs in the same order
// aggregate bit-identically wherever they are held.
type Records []*Record

// Len returns the number of jobs in the set.
func (rs Records) Len() int { return len(rs) }

// Filter returns the records matching the predicate, in set order.
func (rs Records) Filter(pred func(*Record) bool) Records {
	var out Records
	for _, r := range rs {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// GroupBy aggregates all records along a dimension, sorted by descending
// job count.
func (rs Records) GroupBy(dim Dimension) []*Aggregate {
	groups := map[string]*Aggregate{}
	for _, r := range rs {
		key := dimensionKey(r, dim)
		a, ok := groups[key]
		if !ok {
			a = &Aggregate{Key: key, minWait: r.WaitSeconds(), maxWait: r.WaitSeconds()}
			groups[key] = a
		}
		a.Jobs++
		a.CPUHours += r.CPUHours()
		a.WallHours += r.WallSeconds / 3600
		w := r.WaitSeconds()
		a.totalWait += w
		if w < a.minWait {
			a.minWait = w
		}
		if w > a.maxWait {
			a.maxWait = w
		}
		a.totalNodes += float64(r.Nodes)
		if r.Summary != nil {
			a.totalCPUUsr += r.Summary.Means[0] // apps.CPUUser is metric 0
			a.nSummaries++
		}
	}
	out := make([]*Aggregate, 0, len(groups))
	for _, a := range groups {
		a.AvgWaitHrs = a.totalWait / float64(a.Jobs) / 3600
		a.AvgNodes = a.totalNodes / float64(a.Jobs)
		a.MixPercent = 100 * float64(a.Jobs) / float64(len(rs))
		if a.nSummaries > 0 {
			a.AvgCPUUser = a.totalCPUUsr / float64(a.nSummaries)
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Jobs != out[j].Jobs {
			return out[i].Jobs > out[j].Jobs
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// GroupByFiltered aggregates a filtered subset; mix percentages are
// relative to the subset.
func (rs Records) GroupByFiltered(dim Dimension, pred func(*Record) bool) []*Aggregate {
	return rs.Filter(pred).GroupBy(dim)
}

// Totals returns machine-wide aggregate metrics.
func (rs Records) Totals() Aggregate {
	gs := rs.GroupBy("__all__")
	if len(gs) == 0 {
		return Aggregate{Key: "total"}
	}
	t := *gs[0]
	t.Key = "total"
	return t
}

// DrillDownGroup is one outer group of XDMoD's drill-down view with its
// inner breakdown; inner mix percentages are relative to the outer group.
type DrillDownGroup struct {
	Key   string
	Jobs  int
	Inner []*Aggregate
}

// DrillDown groups records by outer, then by inner within each group;
// the outer groups come in descending job order.
func (rs Records) DrillDown(outer, inner Dimension) []*DrillDownGroup {
	byOuter := map[string]Records{}
	for _, r := range rs {
		k := dimensionKey(r, outer)
		byOuter[k] = append(byOuter[k], r)
	}
	out := make([]*DrillDownGroup, 0, len(byOuter))
	for k, recs := range byOuter {
		out = append(out, &DrillDownGroup{Key: k, Jobs: len(recs), Inner: recs.GroupBy(inner)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Jobs != out[j].Jobs {
			return out[i].Jobs > out[j].Jobs
		}
		return out[i].Key < out[j].Key
	})
	return out
}
