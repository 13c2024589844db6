package warehouse

import (
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"sync"
)

// ShardedConfig parameterizes a Sharded store.
type ShardedConfig struct {
	// Shards is the number of independent partitions (default 4).
	Shards int
}

// whShard is one partition behind a mutex: the records ingested into it
// since the last cut, latest per job id.
type whShard struct {
	mu    sync.Mutex
	fresh map[string]*Record
}

// Sharded is a concurrency-safe warehouse partitioned by job id: N locked
// partitions that each hold only what arrived since the last cut, and the
// cut itself, which holds every job. Writers on different shards never
// contend; Snapshot locks all shards at once to fold their records into a
// point-in-time, consistent cut, and every query runs on that cut.
// Records are immutable once ingested (re-ingesting a job id swaps the
// pointer); callers must not mutate a Record after handing it over.
type Sharded struct {
	shards []*whShard

	snapMu sync.Mutex         // serializes Snapshot, and guards last
	last   *WarehouseSnapshot // the latest snapshot; its cut and tables are never written once made
}

// NewSharded returns an empty sharded warehouse.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	s := &Sharded{shards: make([]*whShard, cfg.Shards), last: &WarehouseSnapshot{tables: &tables{}}}
	for i := range s.shards {
		s.shards[i] = &whShard{fresh: map[string]*Record{}}
	}
	return s
}

// shardFor hashes a job id onto its owning partition.
func (s *Sharded) shardFor(jobID string) *whShard {
	h := fnv.New64a()
	h.Write([]byte(jobID))
	return s.shards[h.Sum64()%uint64(len(s.shards))]
}

// Ingest adds a record to its shard; re-ingesting a job id replaces the
// prior record. Satisfies ingest.Sink.
func (s *Sharded) Ingest(r *Record) error {
	if err := checkRecord(r); err != nil {
		return err
	}
	sh := s.shardFor(r.JobID)
	sh.mu.Lock()
	sh.fresh[r.JobID] = r
	sh.mu.Unlock()
	return nil
}

// Len returns the number of ingested jobs: the length of the cut, taken
// now.
func (s *Sharded) Len() int {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return len(s.cut().cut)
}

// Snapshot takes a point-in-time cut (see cut) and returns it.
func (s *Sharded) Snapshot() *WarehouseSnapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// A copy, so a caller that reassigns its snapshot's Records leaves
	// the next cut alone; one that writes into them reaches only the
	// Records of this cut's snapshots, never the cut the next merges.
	v := *s.cut()
	return &v
}

// cut brings the latest snapshot up to date and returns it; the caller
// holds snapMu and hands out no pointer to it. All shard locks are held
// simultaneously while each shard's fresh records are swapped out, so no
// cut can observe a half-applied ingest. Records come out in canonical
// job-id order, which makes every derived aggregation byte-for-byte
// identical across shard counts and ingest interleavings for the same
// record set. Only what changed is sorted and folded: the delta is merged
// into the previous cut and its group tables, and with no delta that cut
// and its tables are returned as they are.
func (s *Sharded) cut() *WarehouseSnapshot {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	var fresh []map[string]*Record
	n := 0
	for _, sh := range s.shards {
		if len(sh.fresh) > 0 {
			fresh = append(fresh, sh.fresh)
			n += len(sh.fresh)
			sh.fresh = map[string]*Record{}
		}
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
	if n > 0 {
		delta := make(Records, 0, n)
		for _, m := range fresh {
			for _, r := range m {
				delta = append(delta, r)
			}
		}
		slices.SortFunc(delta, func(a, b *Record) int { return strings.Compare(a.JobID, b.JobID) })
		cut, replaced := mergeCut(s.last.cut, delta)
		t := s.last.tables.fork()
		var stale [len(tableDims)]bool
		for i, r := range delta {
			if replaced[i] != nil {
				t.replace(replaced[i], r, &stale)
			} else {
				t.add(r)
			}
		}
		t.restoreExtremes(cut, &stale)
		for d := range t {
			t[d].compact()
		}
		s.last = &WarehouseSnapshot{Records: append(make(Records, 0, len(cut)), cut...), tables: t, cut: cut}
	}
	return s.last
}

// Records returns the current cut, in job-id order (Snapshot's records).
func (s *Sharded) Records() Records { return s.Snapshot().Records }

// mergeCut returns a new cut: last with delta (sorted by job id, each id
// once) applied, and for each delta record the record of last it
// replaced, or nil. A job already in last is replaced at its position, a
// new one inserted in order; the runs of last between are copied whole,
// each run's end found by binary search. The result's capacity is its
// length, so no holder of one cut can append into another's.
func mergeCut(last, delta Records) (cut, replaced Records) {
	cut = make(Records, 0, len(last)+len(delta))
	replaced = make(Records, len(delta))
	for k, r := range delta {
		i, found := slices.BinarySearchFunc(last, r.JobID, func(x *Record, id string) int {
			return strings.Compare(x.JobID, id)
		})
		cut = append(append(cut, last[:i]...), r)
		if found {
			replaced[k] = last[i]
			i++
		}
		last = last[i:]
	}
	return slices.Clip(append(cut, last...)), replaced
}

// WarehouseSnapshot is a point-in-time cut: the records (in job-id
// order from a Sharded, ingest order from a Store) and, from a Sharded,
// the group tables of the cut, so GroupBy and Totals cost O(groups)
// while every other query walks the records. Interleaved writers cannot
// smear a result. Cuts taken with no ingest between them share one
// Records slice and one set of tables. Every query describes Records as
// they are when it runs: a caller that edits them gets the walk.
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
// with the cuts forked from it (until a compact replaces them), and only
// the cut being folded reads the maps or appends: queries read keys and
// accs alone.
type tables [len(tableDims)]table

// fork returns tables to fold the next cut's delta into: one flat copy
// of each table's sums, nothing per group.
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
