package warehouse

import (
	"hash/fnv"
	"sort"
	"sync"
)

// ShardedConfig parameterizes a Sharded store.
type ShardedConfig struct {
	// Shards is the number of independent partitions (default 4).
	Shards int
}

// whShard is one partition: a serial Store behind a mutex.
type whShard struct {
	mu    sync.Mutex
	store *Store
}

// Sharded is a concurrency-safe warehouse partitioned by job id: N
// locked Stores. Writers on different shards never contend; Snapshot
// locks all shards at once to take a point-in-time, fully-consistent
// cut, and every query runs on that cut. Records are treated as
// immutable once ingested (re-ingesting a job id swaps the pointer);
// callers must not mutate a Record after handing it over.
type Sharded struct {
	shards []*whShard
}

// NewSharded returns an empty sharded warehouse.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	s := &Sharded{shards: make([]*whShard, cfg.Shards)}
	for i := range s.shards {
		s.shards[i] = &whShard{store: NewStore()}
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
	sh := s.shardFor(r.JobID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.store.Ingest(r)
}

// Len returns the number of ingested jobs across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.store.Len()
		sh.mu.Unlock()
	}
	return n
}

// Lookup returns a record by job id.
func (s *Sharded) Lookup(jobID string) (*Record, bool) {
	sh := s.shardFor(jobID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.store.Lookup(jobID)
}

// Shards returns the partition count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Snapshot takes a point-in-time cut: all shard locks are held
// simultaneously while the records are copied, so no snapshot can
// observe a half-applied ingest. Records come out in canonical job-id
// order, which makes every derived aggregation byte-for-byte identical
// across shard counts and ingest interleavings for the same record set.
func (s *Sharded) Snapshot() *WarehouseSnapshot {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	var recs Records
	for _, sh := range s.shards {
		recs = append(recs, sh.store.records...)
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].JobID < recs[j].JobID })
	return &WarehouseSnapshot{Records: recs}
}

// WarehouseSnapshot is an immutable point-in-time cut of a Sharded
// store: the records in canonical (job-id) order, answering every query
// the record set does. Queries run on the frozen cut, so interleaved
// writers cannot smear a result.
type WarehouseSnapshot struct {
	Records
}
