package warehouse_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/summarize"
	"repro/internal/warehouse"
)

// admissible is the warehouse's door written out independently: a job
// id, a wall time in [0, 366 days], start and submit within ±2^40 s, at
// most 2^24 cores either way, and a finite summary CPU-user mean of
// magnitude under 2^31.
func admissible(r *warehouse.Record) bool {
	return r.JobID != "" &&
		r.WallSeconds >= 0 && r.WallSeconds <= 366*24*3600 &&
		r.Start >= -1<<40 && r.Start <= 1<<40 &&
		r.Submit >= -1<<40 && r.Submit <= 1<<40 &&
		r.Cores >= -1<<24 && r.Cores <= 1<<24 &&
		(r.Summary == nil || r.Summary.Means[0] > -1<<31 && r.Summary.Means[0] < 1<<31)
}

// FuzzIngest drives the warehouse with arbitrary record fields, including
// duplicate job ids and hostile numeric ranges. Store and Sharded must
// each refuse exactly the records the door refuses; every grouping,
// drill-down, total, the monthly utilization and the hourly rollup must
// then run on what was accepted without panicking, and their job counts
// must equal the store size. The second job id carries no summary, so
// every group mixes summarized and unsummarized jobs, and every
// aggregate must encode as JSON. Sharded cuts after every ingest, so a
// re-ingested id is folded out of its tables and back in, and its
// group-bys and totals must encode to the Store's bytes.
func FuzzIngest(f *testing.F) {
	f.Add("j1", "u1", "VASP", "QC,ES", 4, 64, int64(100), int64(200), 3600.0, 0, "j2", 0.9)
	f.Add("", "u", "a", "c", 0, 0, int64(0), int64(0), 0.0, 1, "", 0.0)
	f.Add("dup", "u", "a", "c", -5, -9, int64(-1), int64(-2), -3.5, 255, "dup", -0.5)
	f.Add("long", "u", "a", "c", 1, 16, int64(0), int64(0), 1e13, 0, "j2", 0.5)
	f.Add("wide", "u", "a", "c", 1, 1<<40, int64(0), int64(0), 3600.0, 0, "j2", 0.5)
	f.Add("late", "u", "a", "c", 1, 16, int64(0), int64(1e18), 3600.0, 0, "j2", 0.5)
	f.Add("early", "u", "a", "c", 1, 16, int64(1e18), int64(-1e18), 3600.0, 0, "j2", 0.5)
	f.Add("busy", "u", "a", "c", 1, 16, int64(0), int64(0), 3600.0, 0, "j2", math.Inf(1))
	f.Add("nan", "u", "a", "c", 1, 16, int64(0), int64(0), 3600.0, 0, "j2", math.NaN())
	f.Add("edge", "u", "a", "c", 1, 16, int64(0), int64(0), 3600.0, 0, "j2", float64(1<<31))
	f.Fuzz(func(t *testing.T, jobID, user, app, category string,
		nodes, cores int, submit, start int64, wall float64, exit int, jobID2 string, cpuUser float64) {
		s := warehouse.NewStore()
		sh := warehouse.NewSharded(warehouse.ShardedConfig{})
		mk := func(id string, summarized bool) *warehouse.Record {
			r := &warehouse.Record{
				JobID: id, User: user, AppLabel: app, Category: category,
				Nodes: nodes, Cores: cores, Submit: submit, Start: start,
				WallSeconds: wall, ExitCode: exit,
			}
			if summarized {
				r.Summary = &summarize.Summary{}
				r.Summary.Means[0] = cpuUser
			}
			return r
		}
		seen := map[string]bool{}
		for i, id := range []string{jobID, jobID2, jobID} {
			r := mk(id, i != 1)
			ok := admissible(r)
			if err := s.Ingest(r); (err == nil) != ok {
				t.Fatalf("Store.Ingest(%+v) error = %v, door admits %v", r, err, ok)
			}
			if err := sh.Ingest(r); (err == nil) != ok {
				t.Fatalf("Sharded.Ingest(%+v) error = %v, door admits %v", r, err, ok)
			}
			sh.Snapshot() // each ingest its own cut: a re-ingest replaces at the fold
			if ok {
				seen[id] = true
			}
		}
		encode := func(x any) string {
			b, err := json.Marshal(x)
			if err != nil {
				t.Fatalf("aggregates do not encode: %v", err)
			}
			return string(b)
		}
		v := sh.Snapshot()
		for _, dim := range warehouse.Dimensions {
			if got, want := encode(v.GroupBy(dim)), encode(s.GroupBy(dim)); got != want {
				t.Fatalf("GroupBy(%s) from the sharded tables %s, by the store's walk %s", dim, got, want)
			}
		}
		if got, want := encode(v.Totals()), encode(s.Totals()); got != want {
			t.Fatalf("Totals from the sharded tables %s, by the store's walk %s", got, want)
		}
		if s.Len() != len(seen) || sh.Len() != len(seen) {
			t.Fatalf("store holds %d jobs, sharded %d, want %d (re-ingest must replace)", s.Len(), sh.Len(), len(seen))
		}
		for id := range seen {
			if _, ok := s.Lookup(id); !ok {
				t.Fatalf("ingested job %q not found", id)
			}
		}
		for _, dim := range warehouse.Dimensions {
			groups := s.GroupBy(dim)
			total := 0
			for _, g := range groups {
				total += g.Jobs
			}
			if total != s.Len() {
				t.Fatalf("GroupBy(%s) covers %d jobs, store has %d", dim, total, s.Len())
			}
		}
		tot := s.Totals()
		if tot.Jobs != s.Len() {
			t.Fatalf("Totals covers %d jobs, store has %d", tot.Jobs, s.Len())
		}
		if _, err := json.Marshal([]any{tot, s.GroupBy(warehouse.ByUser), s.Records().Rollup()}); err != nil {
			t.Fatalf("aggregates do not encode: %v", err)
		}
		for _, g := range s.Records().DrillDown(warehouse.ByApplication, warehouse.ByUser) {
			inner := 0
			for _, a := range g.Inner {
				inner += a.Jobs
			}
			if inner != g.Jobs {
				t.Fatalf("drill-down under %q covers %d jobs, outer has %d", g.Key, inner, g.Jobs)
			}
		}
		// A job of at most 366 days overlaps at most 13 months, and lands
		// in the month it starts.
		if n := len(s.Records().Utilization(6400)); n > 13*s.Len() {
			t.Fatalf("Utilization walked %d months for %d jobs", n, s.Len())
		}
		var jobs int64
		for _, b := range s.Records().Rollup() {
			if strings.HasPrefix(b.WallMillis.String(), "-") || b.Jobs <= 0 {
				t.Fatalf("rollup bucket out of range: %+v", b)
			}
			jobs += b.Jobs
		}
		if jobs != int64(s.Len()) {
			t.Fatalf("Rollup covers %d jobs, store has %d", jobs, s.Len())
		}
	})
}
