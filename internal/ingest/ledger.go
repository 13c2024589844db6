package ingest

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Drop reasons. Every record the server accepts is either summarized or
// dropped under exactly one of these, and the reason set is closed so
// the conservation join against /metrics is a total accounting, not a
// sample.
const (
	// ReasonDecode: the frame's payload failed chunk decoding (or its
	// claimed record count disagreed with the decoded chunk). The
	// header's claimed count is what enters the ledger — a frame that
	// lies about its contents is still conserved.
	ReasonDecode = "decode"
	// ReasonQueueFull: the destination shard's queue stayed full for
	// the router's whole bounded wait, and it shed the frame.
	ReasonQueueFull = "queue_full"
	// ReasonShard: the shard faulted (injected error or isolated panic)
	// while applying the message.
	ReasonShard = "shard"
	// ReasonFinalize: finalization failed for the whole job — the
	// summarizer rejected every node, or the ingest.finalize fault site
	// fired.
	ReasonFinalize = "finalize"
	// ReasonIncomplete: records of nodes the summarizer had to skip
	// (fewer than two samples at finalize — a node that never delivered
	// its epilog before the idle timeout, mirroring the production
	// pipeline's dropped-node policy).
	ReasonIncomplete = "incomplete"
	// ReasonSink: the summary was computed but the warehouse refused the
	// record.
	ReasonSink = "sink"
)

// routerShard is the ledger slot for drops that happen before a record
// reaches any shard (decode failures, shed frames).
const routerShard = -1

// shardLedger is one shard's account book.
type shardLedger struct {
	mu         sync.Mutex
	received   uint64
	summarized uint64
	dropped    map[string]uint64
}

// Ledger is the per-shard record account book behind the conservation
// proof. The server credits every accepted record exactly once
// (received) and debits it exactly once (summarized, or dropped under
// one reason); Check asserts the books balance. All methods mirror into
// the obs registry so /metrics carries the same numbers the ledger
// does — the reconciliation harness joins the two exactly.
type Ledger struct {
	shards []shardLedger
	reg    *obs.Registry
	// received is ingest_records_total{outcome="received"}, resolved
	// once: Received runs on every data frame.
	received *obs.Counter
}

// NewLedger returns a ledger for n shards (plus the router slot),
// mirroring counts into reg (nil disables mirroring).
func NewLedger(n int, reg *obs.Registry) *Ledger {
	l := &Ledger{shards: make([]shardLedger, n+1), reg: reg}
	for i := range l.shards {
		l.shards[i].dropped = map[string]uint64{}
	}
	reg.Help("ingest_records_total", "Records accepted by the ingest server, by outcome (received, summarized, dropped).")
	l.received = reg.Counter("ingest_records_total", "outcome", "received")
	return l
}

// slot maps a shard index (routerShard for pre-shard drops) to its book.
func (l *Ledger) slot(shard int) *shardLedger {
	if shard == routerShard {
		return &l.shards[len(l.shards)-1]
	}
	return &l.shards[shard]
}

// Received credits n accepted records to a shard.
func (l *Ledger) Received(shard int, n uint64) {
	s := l.slot(shard)
	s.mu.Lock()
	s.received += n
	s.mu.Unlock()
	l.received.Add(n)
}

// Summarized debits n records as summarized-exactly-once.
func (l *Ledger) Summarized(shard int, n uint64) {
	s := l.slot(shard)
	s.mu.Lock()
	s.summarized += n
	s.mu.Unlock()
	l.reg.Counter("ingest_records_total", "outcome", "summarized").Add(n)
}

// Dropped debits n records under a named reason.
func (l *Ledger) Dropped(shard int, reason string, n uint64) {
	s := l.slot(shard)
	s.mu.Lock()
	s.dropped[reason] += n
	s.mu.Unlock()
	l.reg.Counter("ingest_records_total", "outcome", "dropped", "reason", reason).Add(n)
}

// ShardSnapshot is one shard's balances.
type ShardSnapshot struct {
	Shard      int               `json:"shard"` // -1 is the router slot
	Received   uint64            `json:"received"`
	Summarized uint64            `json:"summarized"`
	Dropped    map[string]uint64 `json:"dropped"`
}

// Snapshot is a point-in-time copy of the whole ledger.
type Snapshot struct {
	Received   uint64            `json:"received"`
	Summarized uint64            `json:"summarized"`
	Dropped    map[string]uint64 `json:"dropped"`
	DroppedSum uint64            `json:"droppedSum"`
	PerShard   []ShardSnapshot   `json:"perShard"`
}

// Snapshot copies the ledger. Each shard's book is internally
// consistent (copied under its lock); the totals are exact whenever the
// server is quiescent, which is when conservation is asserted.
func (l *Ledger) Snapshot() Snapshot {
	out := Snapshot{Dropped: map[string]uint64{}}
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		ss := ShardSnapshot{
			Shard:      i,
			Received:   s.received,
			Summarized: s.summarized,
			Dropped:    make(map[string]uint64, len(s.dropped)),
		}
		for reason, n := range s.dropped {
			ss.Dropped[reason] = n
		}
		s.mu.Unlock()
		if i == len(l.shards)-1 {
			ss.Shard = routerShard
		}
		out.Received += ss.Received
		out.Summarized += ss.Summarized
		for reason, n := range ss.Dropped {
			out.Dropped[reason] += n
			out.DroppedSum += n
		}
		out.PerShard = append(out.PerShard, ss)
	}
	return out
}

// Check asserts exact conservation: received == summarized + Σ dropped,
// globally and per shard. pending is the number of records legitimately
// still in flight (open jobs + queued messages); it must be zero after
// a drain.
func (s Snapshot) Check(pending uint64) error {
	if s.Received != s.Summarized+s.DroppedSum+pending {
		return fmt.Errorf("ingest: ledger unbalanced: received %d != summarized %d + dropped %d + pending %d",
			s.Received, s.Summarized, s.DroppedSum, pending)
	}
	if pending != 0 {
		return nil // per-shard split of pending is unknown mid-flight
	}
	for _, ss := range s.PerShard {
		var drops uint64
		for _, n := range ss.Dropped {
			drops += n
		}
		if ss.Received != ss.Summarized+drops {
			return fmt.Errorf("ingest: shard %d unbalanced: received %d != summarized %d + dropped %d",
				ss.Shard, ss.Received, ss.Summarized, drops)
		}
	}
	return nil
}
