package warehouse

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"
)

// ShardedConfig parameterizes a Sharded store.
type ShardedConfig struct {
	// Shards has no effect: a Sharded keeps one lock, not partitions.
	Shards int
}

// Sharded is a concurrency-safe warehouse: the latest cut, which holds
// every job in job-id order with its group tables, and behind one mutex
// what arrived since. Ingest does each record's work on the writer's
// goroutine: it finds the job's place in the cut, files the record in
// merge order among those since the cut, and folds it into the live
// tables, which are the cut's, forked on the first write after each
// cut. Snapshot then only copies the cut's runs around the new records,
// so every query runs on a point-in-time, consistent cut. Ingest takes
// that cut itself when maxFresh records await one.
// Only the writer holding the mutex reads or appends the tables' slot
// maps. Records are immutable once ingested (re-ingesting a job id swaps
// the pointer); callers must not mutate a Record after handing it over.
type Sharded struct {
	mu    sync.Mutex
	last  *WarehouseSnapshot // the latest cut; its cut and tables are never written once made
	live  *tables            // last's tables with fresh folded in; last.tables until the first write
	stale [len(tableDims)]bool
	fresh []pending // the records ingested since last, one per job id, in merge order
}

// maxFresh bounds the records ingested since the last cut, so that
// filing one in merge order moves at most this many entries however
// long no one takes a snapshot. Each cut Ingest takes copies the whole
// cut, so a smaller bound costs a bulk load more cuts: loading 200 000
// jobs in job-id order ran 1.6 times as long at a bound of 1 024 as at
// this one (2 vCPU).
const maxFresh = 4096

// pending is a record ingested since the last cut and its place there:
// at is the index of the first record of the cut past its job id, or of
// the record it replaces when found.
type pending struct {
	r     *Record
	at    int
	found bool
}

// NewSharded returns an empty sharded warehouse.
func NewSharded(ShardedConfig) *Sharded {
	last := &WarehouseSnapshot{tables: &tables{}}
	return &Sharded{last: last, live: last.tables}
}

// Ingest folds a record into the live tables; re-ingesting a job id
// replaces the prior record. Satisfies ingest.Sink.
func (s *Sharded) Ingest(r *Record) error {
	if err := checkRecord(r); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.fresh) == maxFresh {
		s.cutLocked()
	}
	if s.live == s.last.tables {
		s.live = s.last.tables.fork()
	}
	i, found := slices.BinarySearchFunc(s.last.cut, r.JobID, func(x *Record, id string) int {
		return strings.Compare(x.JobID, id)
	})
	p := pending{r, i, found}
	k, again := slices.BinarySearchFunc(s.fresh, p, mergeOrder)
	if again {
		s.live.replace(s.fresh[k].r, r, &s.stale)
		s.fresh[k].r = r
		return nil
	}
	if found {
		s.live.replace(s.last.cut[i], r, &s.stale)
	} else {
		s.live.add(r)
	}
	s.fresh = slices.Insert(s.fresh, k, p)
	return nil
}

// mergeOrder orders records since a cut as the merge takes them: by
// place, then job id, so the new ids bound for one place come before the
// replacement of the job there.
func mergeOrder(a, b pending) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return strings.Compare(a.r.JobID, b.r.JobID)
}

// Len returns the number of ingested jobs, new ones not yet cut
// included.
func (s *Sharded) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.live.total().jobs)
}

// Snapshot takes a point-in-time cut and returns it. Records come out in
// canonical job-id order, which makes every derived aggregation
// byte-for-byte identical across ingest interleavings for the same
// record set. With nothing ingested since the last cut, that cut and its
// tables are returned as they are.
func (s *Sharded) Snapshot() *WarehouseSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.fresh) > 0 {
		s.cutLocked()
	}
	// A copy, so a caller that reassigns its snapshot's Records leaves
	// the next cut alone; one that writes into them reaches only the
	// Records of this cut's snapshots, never the cut the next merges.
	v := *s.last
	return &v
}

// cutLocked makes the latest cut: last with fresh merged in, described
// by the live tables.
func (s *Sharded) cutLocked() {
	cut := mergeCut(s.last.cut, s.fresh)
	s.live.restoreExtremes(cut, &s.stale)
	for d := range s.live {
		s.live[d].compact()
	}
	s.last = &WarehouseSnapshot{Records: append(make(Records, 0, len(cut)), cut...), tables: s.live, cut: cut}
	s.fresh, s.stale = s.fresh[:0], [len(tableDims)]bool{}
}

// Records returns the current cut, in job-id order (Snapshot's records).
func (s *Sharded) Records() Records { return s.Snapshot().Records }

// mergeCut returns a new cut: last with fresh (sorted by place, then job
// id) applied. A found record replaces the job at its place, a new one
// goes in before it; the runs of last between are copied whole. The
// result's capacity is its length, so no holder of one cut can append
// into another's.
func mergeCut(last Records, fresh []pending) Records {
	cut := make(Records, 0, len(last)+len(fresh))
	from := 0
	for _, p := range fresh {
		cut = append(append(cut, last[from:p.at]...), p.r)
		from = p.at
		if p.found {
			from++
		}
	}
	return slices.Clip(append(cut, last[from:]...))
}

// WarehouseSnapshot is a point-in-time cut: the records (in job-id
// order from a Sharded, ingest order from a Store) and, from a Sharded,
// the group tables of the cut, so GroupBy and Totals cost O(groups)
// while every other query walks the records. Interleaved writers cannot
// smear a result. Cuts taken with no ingest between them share one
// Records slice and one set of tables. A snapshot's tables share their
// slot maps with the Sharded's live tables, which only the writer
// holding its mutex reads or appends; queries read keys and sums alone.
// Every query describes Records as they are when it runs: a caller that
// edits them gets the walk.
type WarehouseSnapshot struct {
	Records
	tables *tables // nil: every query walks Records
	cut    Records // what the tables fold, in Records' order; never handed out
}

// folded reports whether the tables describe Records: the same record
// pointers in the same order as the cut they were folded for. No record
// is read; the one pass over the two pointer arrays is small beside a
// walk that folds every record.
func (v *WarehouseSnapshot) folded() bool {
	return v.tables != nil && slices.Equal(v.Records, v.cut)
}

// GroupBy aggregates the cut along a dimension, sorted by descending job
// count: read from the tables, bit-equal to Records.GroupBy.
func (v *WarehouseSnapshot) GroupBy(dim Dimension) []*Aggregate {
	d := slices.Index(Dimensions, dim)
	if d < 0 || !v.folded() {
		return v.Records.GroupBy(dim)
	}
	return v.tables[d].aggregates(int(v.tables.total().jobs))
}

// Totals returns machine-wide aggregate metrics from the tables.
func (v *WarehouseSnapshot) Totals() Aggregate {
	if !v.folded() {
		return v.Records.Totals()
	}
	return totals(v.tables.total())
}

// allJobs is the table dimension whose one group holds every job: the
// tables' Totals. dimensionKey files every record under "" for it.
const allJobs Dimension = ""

// tableDims are the dimensions a snapshot keeps a table for, indexed as
// Dimensions, then allJobs.
var tableDims = [...]Dimension{ByApplication, ByCategory, ByUser, ByPopulation, ByJobSize, ByMonth, allJobs}

// tables are a cut's group tables, one per tableDims entry. A cut owns
// its tables' accs; the slot maps and the append-only keys are shared
// with the tables forked from it (until a compact replaces them), and
// only the Sharded's writer, holding its mutex, reads the maps or
// appends: queries read keys and accs alone.
type tables [len(tableDims)]table

// fork returns tables to fold the records after a cut into: one flat
// copy of each table's sums, nothing per group.
func (t *tables) fork() *tables {
	next := *t
	for d := range next {
		next[d].accs = slices.Clone(t[d].accs)
	}
	return &next
}

// total returns the all-jobs group.
func (t *tables) total() *acc {
	if all := t[len(tableDims)-1].accs; len(all) > 0 {
		return &all[0]
	}
	return &acc{}
}

// add folds r into its group of every table.
func (t *tables) add(r *Record) {
	for d, dim := range tableDims {
		t[d].add(dimensionKey(r, dim), r)
	}
}

// replace folds old out of its group of every table and r into its
// group, marking stale each table where old held a group's wait extreme
// that r, in the same group, does not take over.
func (t *tables) replace(old, r *Record, stale *[len(tableDims)]bool) {
	for d, dim := range tableDims {
		oldKey, key := dimensionKey(old, dim), dimensionKey(r, dim)
		var heir *Record
		if key == oldKey {
			heir = r
		}
		if t[d].remove(oldKey, old, heir) {
			stale[d] = true
		}
		t[d].add(key, r)
	}
}

// restoreExtremes recomputes the wait extremes of every group of each
// stale table from the cut the tables now describe: one walk of the cut
// for all of them, and none when no table is stale.
func (t *tables) restoreExtremes(cut Records, stale *[len(tableDims)]bool) {
	for d := range t {
		for i := 0; stale[d] && i < len(t[d].accs); i++ {
			t[d].accs[i].minWait, t[d].accs[i].maxWait = math.MaxInt64, math.MinInt64
		}
	}
	for i := 0; *stale != [len(tableDims)]bool{} && i < len(cut); i++ {
		for d, dim := range tableDims {
			if stale[d] {
				a, w := &t[d].accs[t[d].slot[dimensionKey(cut[i], dim)]], cut[i].Start-cut[i].Submit
				a.minWait, a.maxWait = min(a.minWait, w), max(a.maxWait, w)
			}
		}
	}
}
