// Package warehouse implements the XDMoD-style data warehouse layer: it
// ingests job accounting records joined with SUPReMM summaries and answers
// the dimensional aggregation queries XDMoD exposes (jobs, CPU hours, wall
// and wait time, broken down by application, broad category, user,
// population, job size bucket, or month). The paper's Table 3 "% mix"
// column is one of these queries.
package warehouse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
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
		return monthKey(r.Start)
	}
	return ""
}

// monthKey is time.Unix(s, 0).UTC().Format("2006-01") without parsing a
// layout: the year in at least four digits, after a minus sign when
// negative, then a dash and the month in two.
func monthKey(s int64) string {
	y, m, _ := time.Unix(s, 0).UTC().Date()
	b := make([]byte, 0, 24)
	if y < 0 {
		b, y = append(b, '-'), -y
	}
	for p := 1000; p > 1 && p > y; p /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(y), 10)
	return string(append(b, '-', byte('0'+m/10), byte('0'+m%10)))
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

// Aggregate is the set of metrics XDMoD reports per group, derived from
// the group's exact integer sums (acc.finish).
type Aggregate struct {
	Key        string  `json:"key"`
	Jobs       int     `json:"jobs"`
	CPUHours   float64 `json:"cpuHours"`
	WallHours  float64 `json:"wallHours"`
	AvgWaitHrs float64 `json:"avgWaitHours"`
	AvgNodes   float64 `json:"avgNodes"`
	MixPercent float64 `json:"mixPercent"` // share of total jobs, the Table 3 "% mix"
	AvgCPUUser float64 `json:"avgCpuUser"` // mean SUPReMM CPU user fraction (QoS view)
	minWait    float64
	maxWait    float64
}

// MinWaitHours and MaxWaitHours expose the wait-time extremes.
func (a *Aggregate) MinWaitHours() float64 { return a.minWait / 3600 }

// MaxWaitHours returns the maximum queue wait in hours.
func (a *Aggregate) MaxWaitHours() float64 { return a.maxWait / 3600 }

// The bounds a record must meet to be warehoused. They keep every
// query's arithmetic in range: Utilization walks at most 13 months per
// job, Start+wall and Start-Submit cannot overflow, and each of a
// record's acc terms (Cores x wall-milliseconds, the fixed-point CPU-user
// mean) fits an int64 with room to spare. Generated walls stay under a
// month, and CPU-user means in [0, 1].
const (
	maxWallSeconds = 366 * 24 * 3600
	maxUnixSeconds = 1 << 40 // about 34 800 years either side of 1970
	maxCores       = 1 << 24
	maxCPUUser     = 1 << 31
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
	case r.Summary != nil && !(math.Abs(r.Summary.Means[0]) < maxCPUUser):
		return fmt.Errorf("warehouse: job %s: CPU-user mean %g not within ±%d", r.JobID, r.Summary.Means[0], maxCPUUser)
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

// Records returns a copy of the record set, in ingest order.
func (s *Store) Records() Records { return append(Records(nil), s.records...) }

// Store's queries are the record set's, over its records in ingest order.

// Len returns the number of ingested jobs.
func (s *Store) Len() int { return len(s.records) }

// GroupBy aggregates all records along a dimension.
func (s *Store) GroupBy(dim Dimension) []*Aggregate { return s.records.GroupBy(dim) }

// Totals returns machine-wide aggregate metrics.
func (s *Store) Totals() Aggregate { return s.records.Totals() }

// Snapshot returns a copy of the records in ingest order; it keeps no
// group tables, so every query walks them.
func (s *Store) Snapshot() *WarehouseSnapshot { return &WarehouseSnapshot{Records: s.Records()} }

// Records is a set of processed jobs, and owns the body of every query
// a walk of the jobs answers: over a Store's records in ingest order,
// over a Sharded's cut in job-id order (WarehouseSnapshot). GroupBy,
// Totals and Rollup fold integer sums (acc), so they answer the same jobs
// bit-identically in any order; DrillDown's groups do too, while
// Utilization's float sums accumulate in slice order.
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
// job count. It is the walk the tables a snapshot keeps are held to.
func (rs Records) GroupBy(dim Dimension) []*Aggregate {
	var t table
	for _, r := range rs {
		t.add(dimensionKey(r, dim), r)
	}
	return t.aggregates(len(rs))
}

// table is one dimension's groups: a key keeps the slot it first got
// while its group holds jobs, and an emptied group's slot stays until
// compact drops it.
type table struct {
	slot  map[string]int // key -> slot
	keys  []string       // slot -> key
	accs  []acc          // slot -> the group's sums
	empty int            // slots whose group holds no jobs
}

// add folds r into the group of key, opening a slot for a new key.
func (t *table) add(key string, r *Record) {
	i, ok := t.slot[key]
	if !ok {
		if t.slot == nil {
			t.slot = map[string]int{}
		}
		i = len(t.keys)
		t.slot[key] = i
		t.keys = append(t.keys, key)
		t.accs = append(t.accs, acc{})
	} else if t.accs[i].jobs == 0 {
		t.empty--
	}
	t.accs[i].add(r)
}

// remove folds r out of the group of key (see acc.remove for heir and
// the report).
func (t *table) remove(key string, r, heir *Record) (staleExtremes bool) {
	a := &t.accs[t.slot[key]]
	stale := a.remove(r, heir)
	if a.jobs == 0 {
		t.empty++
	}
	return stale
}

// compact drops the slots of emptied groups once they outnumber the
// groups that hold jobs, so a table's size follows its live groups and
// not every key it has seen. An emptied group's sums are exactly zero,
// so the live groups carry over as they are; the copy costs O(slots),
// paid for by the more than len/2 removals that emptied them. The
// result shares nothing with t, which older cuts may still read.
func (t *table) compact() {
	if 2*t.empty <= len(t.accs) {
		return
	}
	live := len(t.accs) - t.empty
	c := table{slot: make(map[string]int, live), keys: make([]string, 0, live), accs: make([]acc, 0, live)}
	for i := range t.accs {
		if t.accs[i].jobs > 0 {
			c.slot[t.keys[i]] = len(c.keys)
			c.keys = append(c.keys, t.keys[i])
			c.accs = append(c.accs, t.accs[i])
		}
	}
	*t = c
}

// aggregates reads the groups that hold jobs, with MixPercent a share of
// of jobs, sorted by descending job count, then key: two allocations, one
// block of Aggregates and one of pointers into it, whatever the group
// count. Keys are unique, so the order is total.
func (t *table) aggregates(of int) []*Aggregate {
	block := make([]Aggregate, 0, len(t.accs)-t.empty)
	for i := range t.accs {
		if t.accs[i].jobs > 0 {
			block = append(block, t.accs[i].finish(t.keys[i], of))
		}
	}
	out := make([]*Aggregate, len(block))
	for i := range block {
		out[i] = &block[i]
	}
	slices.SortFunc(out, func(a, b *Aggregate) int {
		return cmp.Or(cmp.Compare(b.Jobs, a.Jobs), strings.Compare(a.Key, b.Key))
	})
	return out
}

// Totals returns machine-wide aggregate metrics.
func (rs Records) Totals() Aggregate {
	var a acc
	for _, r := range rs {
		a.add(r)
	}
	return totals(&a)
}

// totals reads the all-jobs group as the "total" aggregate.
func totals(a *acc) Aggregate {
	if a.jobs == 0 {
		return Aggregate{Key: "total"}
	}
	return a.finish("total", int(a.jobs))
}

// DrillDownGroup is one outer group of XDMoD's drill-down view with its
// inner breakdown; inner mix percentages are relative to the outer group.
type DrillDownGroup struct {
	Key   string       `json:"key"`
	Jobs  int          `json:"jobs"`
	Inner []*Aggregate `json:"inner"`
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
	slices.SortFunc(out, func(a, b *DrillDownGroup) int {
		return cmp.Or(cmp.Compare(b.Jobs, a.Jobs), strings.Compare(a.Key, b.Key))
	})
	return out
}
