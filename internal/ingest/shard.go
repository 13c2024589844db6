package ingest

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/lariat"
	"repro/internal/obs/flight"
	"repro/internal/summarize"
	"repro/internal/taccstats"
	"repro/internal/warehouse"
)

// Fault sites the ingest path exposes to the resilience.Faults registry
// (-faults spec grammar, e.g. "ingest.shard=panic:0.01"). Each site is
// injected before the state mutation it guards, so a fired fault drops
// the unit cleanly into the ledger instead of corrupting shard state.
const (
	// SiteConn fires per received frame in the connection handler:
	// error closes the connection (the client resumes from its last
	// ack), latency stalls the read loop, panic is isolated to the
	// connection.
	SiteConn = "ingest.conn"
	// SiteShard fires per message in the shard loop: error and panic
	// drop the message's records under reason "shard".
	SiteShard = "ingest.shard"
	// SiteFinalize fires when a job finalizes: error and panic drop the
	// whole job's records under reason "finalize", latency delays the
	// summary.
	SiteFinalize = "ingest.finalize"
)

// coresPerNode is the machine's node width (Stampede's, matching the
// batch pipeline): a job without meta is charged Nodes × coresPerNode.
var coresPerNode = taccstats.DefaultConfig().CoresPerNode

// Sink receives finalized job records: the same warehouse.Record the
// batch pipeline builds, so whatever a sink holds is a training corpus
// for core.BuildDataset. Every shard goroutine calls Ingest, so a sink
// must be safe for concurrent use: *warehouse.Sharded is, the serial
// *warehouse.Store is not.
type Sink interface {
	Ingest(*warehouse.Record) error
}

// message is one unit of shard work, routed by job id.
type message struct {
	// Exactly one of chunk / meta / drain is set.
	chunk *taccstats.Chunk
	meta  *JobMeta
	drain chan struct{}
	// decode is a chunk's frame read and decode on its connection;
	// enqueued is when the router queued the message.
	decode   time.Duration
	enqueued time.Time
}

// records returns how many ledger records the message carries.
func (m *message) records() uint64 {
	if m.chunk == nil {
		return 0
	}
	return uint64(len(m.chunk.Samples))
}

// jobID returns the job the message belongs to ("" for drain).
func (m *message) jobID() string {
	switch {
	case m.chunk != nil:
		return m.chunk.JobID
	case m.meta != nil:
		return m.meta.JobID
	}
	return ""
}

// hostState folds one node's samples for an open job as they arrive.
type hostState struct {
	node  summarize.Node
	ended bool
}

// jobState is one open job on a shard.
type jobState struct {
	meta    *JobMeta
	hosts   map[string]*hostState
	ended   int    // hosts whose epilog (end marker) arrived
	records uint64 // samples folded, pending finalization
	last    time.Time
	// decode and queue sum the job's messages' frame decode and shard
	// queue wait, for its finalize event.
	decode, queue time.Duration
}

// shard owns a partition of the job-id space: one goroutine, one
// bounded queue, one map of open jobs. Single ownership means a job's
// records are applied and finalized by exactly one goroutine — the
// exactly-once half of the conservation proof.
type shard struct {
	id   int
	srv  *Server
	q    chan message
	jobs map[string]*jobState
	done chan struct{}
	// stalled is set when a route found q full for a whole routeWait,
	// and cleared when one finds q empty.
	stalled atomic.Bool
}

func newShard(id int, srv *Server, depth int) *shard {
	return &shard{
		id:   id,
		srv:  srv,
		q:    make(chan message, depth),
		jobs: map[string]*jobState{},
		done: make(chan struct{}),
	}
}

// run is the shard loop. The idle ticker finalizes jobs whose stream
// went quiet without an epilog (node crash, lost frames) so records can
// never be held hostage forever.
func (sh *shard) run() {
	defer close(sh.done)
	var tick *time.Ticker
	var tickC <-chan time.Time
	if sh.srv.cfg.IdleTimeout > 0 {
		tick = time.NewTicker(sh.srv.cfg.IdleTimeout / 2)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case msg := <-sh.q:
			sh.srv.depthGauge(sh.id).Set(float64(len(sh.q)))
			if msg.drain != nil {
				sh.drainQueue()
				sh.finalizeAll("drain")
				close(msg.drain)
				return
			}
			sh.handle(msg, time.Now())
		case <-tickC:
			sh.sweepIdle()
		}
	}
}

// drainQueue applies every message already queued behind the drain
// barrier's enqueue point. The router stops accepting before drain is
// sent, so this empties the queue for good.
func (sh *shard) drainQueue() {
	for {
		select {
		case msg := <-sh.q:
			if msg.drain == nil {
				sh.handle(msg, time.Now())
			}
		default:
			return
		}
	}
}

// handle applies one message, dequeued at now, under panic isolation:
// a shard fault (injected or real) drops the message's records into the
// ledger instead of killing the daemon or corrupting open-job state.
// It returns the message's chunk to the pool after its last read of it,
// the panic log's included: the fold copies what it keeps.
func (sh *shard) handle(msg message, now time.Time) {
	n := msg.records()
	defer func() {
		if p := recover(); p != nil {
			sh.srv.cfg.Log.Error("ingest.shard.panic", "shard", sh.id, "job", msg.jobID(), "panic", fmt.Sprint(p))
			sh.dropMessage(n)
		}
		if msg.chunk != nil {
			chunks.Put(msg.chunk)
		}
	}()
	// The fault site guards the mutation: when it fires, shard state is
	// untouched and the records are accounted dropped, exactly once.
	if err := sh.srv.cfg.Faults.Inject(SiteShard); err != nil {
		sh.dropMessage(n)
		return
	}
	switch {
	case msg.meta != nil:
		js := sh.job(msg.meta.JobID)
		js.meta = msg.meta
		js.last = now
		js.queue += now.Sub(msg.enqueued)
		sh.maybeFinalize(msg.meta.JobID, js, "epilog")
	case msg.chunk != nil:
		js := sh.job(msg.chunk.JobID)
		hs := js.hosts[msg.chunk.Host]
		if hs == nil {
			hs = &hostState{node: summarize.Node{Host: msg.chunk.Host}}
			js.hosts[msg.chunk.Host] = hs
		}
		js.records += n
		js.last = now
		js.decode += msg.decode
		js.queue += now.Sub(msg.enqueued)
		for i := range msg.chunk.Samples {
			hs.node.Add(&msg.chunk.Samples[i])
			if msg.chunk.Samples[i].Marker == taccstats.MarkerEnd && !hs.ended {
				hs.ended = true
				js.ended++
			}
		}
		sh.maybeFinalize(msg.chunk.JobID, js, "epilog")
	}
}

// dropMessage accounts a faulted message's records and settles pending.
func (sh *shard) dropMessage(n uint64) {
	if n > 0 {
		sh.srv.ledger.Dropped(sh.id, ReasonShard, n)
		sh.srv.pending.Add(-int64(n))
	}
}

// job returns (creating) the open-job state.
func (sh *shard) job(id string) *jobState {
	js, ok := sh.jobs[id]
	if !ok {
		js = &jobState{hosts: map[string]*hostState{}}
		sh.jobs[id] = js
		sh.srv.openJobs.Inc()
	}
	return js
}

// maybeFinalize fires the epilog condition: metadata present and every
// expected node's end marker delivered.
func (sh *shard) maybeFinalize(id string, js *jobState, trigger string) {
	if js.meta == nil || js.ended < js.meta.Nodes {
		return
	}
	sh.finalize(id, js, trigger)
}

// sweepIdle finalizes jobs idle past the timeout with whatever arrived.
func (sh *shard) sweepIdle() {
	cutoff := time.Now().Add(-sh.srv.cfg.IdleTimeout)
	var stale []string
	for id, js := range sh.jobs {
		if js.last.Before(cutoff) {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	for _, id := range stale {
		sh.finalize(id, sh.jobs[id], "idle")
	}
}

// finalizeAll flushes every open job (drain/shutdown path).
func (sh *shard) finalizeAll(trigger string) {
	ids := make([]string, 0, len(sh.jobs))
	for id := range sh.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sh.finalize(id, sh.jobs[id], trigger)
	}
}

// finalize summarizes one job and settles every one of its records in
// the ledger: summarized for nodes the summary covers, dropped
// otherwise. It is the only place records leave an open job, and it
// always removes the job, so each record is settled exactly once.
//
// The job's flight event carries its frames' summed decode as the
// decode stage and their summed shard queue wait as its queue wait.
// Its duration is those two plus the finalize itself, so the handler
// time is the decode and the finalize, as on a served request.
func (sh *shard) finalize(id string, js *jobState, trigger string) {
	srv := sh.srv
	start := time.Now()
	var ev *flight.Active
	if srv.cfg.Flight != nil {
		ev = flight.NewActive(id, "INGEST", "/ingest/finalize", start)
		ev.Stages[flight.StageDecode] = int64(js.decode)
		ev.SetQueueWait(js.queue)
	}

	settled := false
	settle := func(status int, errMsg string) {
		// Always runs exactly once, even on a finalize panic: the job
		// leaves the map and its books are closed before we return.
		if settled {
			return
		}
		settled = true
		delete(sh.jobs, id)
		srv.openJobs.Dec()
		srv.pending.Add(-int64(js.records))
		srv.reg.Histogram("ingest_finalize_seconds", nil).ObserveDuration(start)
		outcome := "summarized"
		if status != 200 {
			outcome = "dropped"
		}
		srv.reg.Counter("ingest_jobs_finalized_total", "outcome", outcome, "trigger", trigger).Inc()
		if ev != nil {
			if errMsg != "" {
				ev.SetErr(errMsg)
			}
			ev.Finalize(status, js.queue+js.decode+time.Since(start))
			ev.Rows = int64(js.records) // Finalize counts only timed rows
			srv.cfg.Flight.Record(ev)
		}
	}
	defer func() {
		if p := recover(); p != nil {
			srv.cfg.Log.Error("ingest.finalize.panic", "shard", sh.id, "job", id, "panic", fmt.Sprint(p))
			srv.ledger.Dropped(sh.id, ReasonFinalize, js.records)
			settle(500, fmt.Sprint(p))
		}
	}()

	if err := srv.cfg.Faults.Inject(SiteFinalize); err != nil {
		srv.ledger.Dropped(sh.id, ReasonFinalize, js.records)
		settle(500, err.Error())
		return
	}

	// Combine the folds host-sorted, matching the batch pipeline's spool
	// ordering so a streamed job summarizes bit-identically to the same
	// job summarized from disk.
	hostNames := make([]string, 0, len(js.hosts))
	for h := range js.hosts {
		hostNames = append(hostNames, h)
	}
	sort.Strings(hostNames)
	nodes := make([]*summarize.Node, len(hostNames))
	for i, h := range hostNames {
		nodes[i] = &js.hosts[h].node
	}
	t := time.Now()
	sum, err := summarize.Nodes(id, nodes, true)
	t = ev.Lap(flight.StageSummarize, t)
	if err != nil {
		srv.ledger.Dropped(sh.id, ReasonFinalize, js.records)
		settle(500, err.Error())
		return
	}
	var droppedRecs uint64
	for _, h := range sum.DroppedNodes {
		droppedRecs += uint64(js.hosts[h].node.Len())
	}
	okRecs := js.records - droppedRecs

	rec := buildRecord(id, js.meta, sum)
	err = srv.cfg.Sink.Ingest(rec)
	ev.Lap(flight.StageWarehouse, t)
	if err != nil {
		srv.ledger.Dropped(sh.id, ReasonSink, okRecs)
		if droppedRecs > 0 {
			srv.ledger.Dropped(sh.id, ReasonIncomplete, droppedRecs)
		}
		settle(500, err.Error())
		return
	}
	srv.ledger.Summarized(sh.id, okRecs)
	if droppedRecs > 0 {
		srv.ledger.Dropped(sh.id, ReasonIncomplete, droppedRecs)
	}
	settle(200, "")
}

// buildRecord joins the summary with the job's accounting metadata
// (defaults mirror the batch pipeline's unlabeled-job conventions when
// no meta frame arrived before finalization).
func buildRecord(id string, meta *JobMeta, sum *summarize.Summary) *warehouse.Record {
	rec := &warehouse.Record{
		JobID:       id,
		User:        "unknown",
		AppLabel:    lariat.NA,
		Category:    string(apps.CatUnknown),
		Pop:         cluster.PopNA,
		Nodes:       sum.Nodes,
		Cores:       sum.Nodes * coresPerNode,
		WallSeconds: sum.WallSeconds,
		Summary:     sum,
	}
	if meta != nil {
		rec.User = meta.User
		if meta.AppLabel != "" {
			rec.AppLabel = meta.AppLabel
		}
		if meta.Category != "" {
			rec.Category = meta.Category
		}
		rec.Pop = popFromString(meta.Pop)
		if meta.Cores > 0 {
			rec.Cores = meta.Cores
		}
		rec.Submit, rec.Start, rec.ExitCode = meta.Submit, meta.Start, meta.ExitCode
	}
	return rec
}

// popFromString maps the wire population label onto the warehouse enum.
func popFromString(s string) cluster.Population {
	switch s {
	case cluster.PopCommunity.String():
		return cluster.PopCommunity
	case cluster.PopUncategorized.String():
		return cluster.PopUncategorized
	}
	return cluster.PopNA
}
