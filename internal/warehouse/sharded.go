package warehouse

import (
	"hash/fnv"
	"slices"
	"strings"
	"sync"
)

// ShardedConfig parameterizes a Sharded store.
type ShardedConfig struct {
	// Shards is the number of independent partitions (default 4).
	Shards int
}

// whShard is one partition behind a mutex: a job-id index, and the
// records ingested since the last cut, latest per job id.
type whShard struct {
	mu    sync.Mutex
	byID  map[string]*Record
	fresh map[string]*Record
}

// Sharded is a concurrency-safe warehouse partitioned by job id: N
// locked job-id indexes. Writers on different shards never contend;
// Snapshot locks all shards at once to take a point-in-time, consistent
// cut, and every query runs on that cut. Records are immutable once
// ingested (re-ingesting a job id swaps the pointer); callers must not
// mutate a Record after handing it over.
type Sharded struct {
	shards []*whShard

	snapMu sync.Mutex // serializes Snapshot, and guards last
	last   Records    // the latest cut, in job-id order; never written once cut
}

// NewSharded returns an empty sharded warehouse.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	s := &Sharded{shards: make([]*whShard, cfg.Shards)}
	for i := range s.shards {
		s.shards[i] = &whShard{byID: map[string]*Record{}, fresh: map[string]*Record{}}
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
	sh.byID[r.JobID] = r
	sh.fresh[r.JobID] = r
	sh.mu.Unlock()
	return nil
}

// Len returns the number of ingested jobs across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.byID)
		sh.mu.Unlock()
	}
	return n
}

// Lookup returns a record by job id.
func (s *Sharded) Lookup(jobID string) (*Record, bool) {
	sh := s.shardFor(jobID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.byID[jobID]
	return r, ok
}

// Shards returns the partition count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Snapshot takes a point-in-time cut: all shard locks are held
// simultaneously while each shard's fresh records are swapped out, so
// no snapshot can observe a half-applied ingest. Records come out in
// canonical job-id order, which makes every derived aggregation
// byte-for-byte identical across shard counts and ingest interleavings
// for the same record set. Only what changed is sorted: the delta is
// merged into the previous cut, and with no delta that cut is returned
// as it is.
func (s *Sharded) Snapshot() *WarehouseSnapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
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
		s.last = mergeCut(s.last, delta)
	}
	return &WarehouseSnapshot{Records: s.last}
}

// Records returns the current cut, in job-id order (Snapshot's records).
func (s *Sharded) Records() Records { return s.Snapshot().Records }

// mergeCut returns a new cut: last with delta (sorted by job id, each id
// once) applied. A job already in last is replaced at its position, a
// new one inserted in order; the runs of last between are copied whole,
// each run's end found by binary search. The result's capacity is its
// length, so no holder of one cut can append into another's.
func mergeCut(last, delta Records) Records {
	out := make(Records, 0, len(last)+len(delta))
	for _, r := range delta {
		i, found := slices.BinarySearchFunc(last, r.JobID, func(x *Record, id string) int {
			return strings.Compare(x.JobID, id)
		})
		out = append(append(out, last[:i]...), r)
		if found {
			i++
		}
		last = last[i:]
	}
	return slices.Clip(append(out, last...))
}

// WarehouseSnapshot is an immutable point-in-time cut of a Sharded
// store: the records in canonical (job-id) order, answering every query
// the record set does. Queries run on the frozen cut, so interleaved
// writers cannot smear a result. Cuts taken with no ingest between them
// share one Records slice, and every cut is shared with the next merge:
// callers must not write to it.
type WarehouseSnapshot struct {
	Records
}
