package warehouse_test

import (
	"testing"

	"repro/internal/warehouse"
)

// admissible is the warehouse's door written out independently: a job
// id, a wall time in [0, 366 days], start and submit within ±2^40 s, and
// at most 2^24 cores either way.
func admissible(r *warehouse.Record) bool {
	return r.JobID != "" &&
		r.WallSeconds >= 0 && r.WallSeconds <= 366*24*3600 &&
		r.Start >= -1<<40 && r.Start <= 1<<40 &&
		r.Submit >= -1<<40 && r.Submit <= 1<<40 &&
		r.Cores >= -1<<24 && r.Cores <= 1<<24
}

// FuzzIngest drives the warehouse with arbitrary record fields, including
// duplicate job ids and hostile numeric ranges. Store and Sharded must
// each refuse exactly the records the door refuses; every grouping,
// drill-down, total, the monthly utilization and the hourly rollup must
// then run on what was accepted without panicking, and their job counts
// must equal the store size.
func FuzzIngest(f *testing.F) {
	f.Add("j1", "u1", "VASP", "QC,ES", 4, 64, int64(100), int64(200), 3600.0, 0, "j2")
	f.Add("", "u", "a", "c", 0, 0, int64(0), int64(0), 0.0, 1, "")
	f.Add("dup", "u", "a", "c", -5, -9, int64(-1), int64(-2), -3.5, 255, "dup")
	f.Add("long", "u", "a", "c", 1, 16, int64(0), int64(0), 1e13, 0, "j2")
	f.Add("wide", "u", "a", "c", 1, 1<<40, int64(0), int64(0), 3600.0, 0, "j2")
	f.Add("late", "u", "a", "c", 1, 16, int64(0), int64(1e18), 3600.0, 0, "j2")
	f.Add("early", "u", "a", "c", 1, 16, int64(1e18), int64(-1e18), 3600.0, 0, "j2")
	f.Fuzz(func(t *testing.T, jobID, user, app, category string,
		nodes, cores int, submit, start int64, wall float64, exit int, jobID2 string) {
		s := warehouse.NewStore()
		sh := warehouse.NewSharded(warehouse.ShardedConfig{})
		mk := func(id string) *warehouse.Record {
			return &warehouse.Record{
				JobID: id, User: user, AppLabel: app, Category: category,
				Nodes: nodes, Cores: cores, Submit: submit, Start: start,
				WallSeconds: wall, ExitCode: exit,
			}
		}
		seen := map[string]bool{}
		for _, id := range []string{jobID, jobID2, jobID} {
			r := mk(id)
			ok := admissible(r)
			if err := s.Ingest(r); (err == nil) != ok {
				t.Fatalf("Store.Ingest(%+v) error = %v, door admits %v", r, err, ok)
			}
			if err := sh.Ingest(r); (err == nil) != ok {
				t.Fatalf("Sharded.Ingest(%+v) error = %v, door admits %v", r, err, ok)
			}
			if ok {
				seen[id] = true
			}
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
		if tot := s.Totals(); tot.Jobs != s.Len() {
			t.Fatalf("Totals covers %d jobs, store has %d", tot.Jobs, s.Len())
		}
		for _, g := range s.DrillDown(warehouse.ByApplication, warehouse.ByUser) {
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
		if n := len(s.Utilization(6400)); n > 13*s.Len() {
			t.Fatalf("Utilization walked %d months for %d jobs", n, s.Len())
		}
		var jobs int64
		for _, b := range s.Rollup() {
			if b.WallMillis < 0 || b.Jobs <= 0 {
				t.Fatalf("rollup bucket out of range: %+v", b)
			}
			jobs += b.Jobs
		}
		if jobs != int64(s.Len()) {
			t.Fatalf("Rollup covers %d jobs, store has %d", jobs, s.Len())
		}
	})
}
