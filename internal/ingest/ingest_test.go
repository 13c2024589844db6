package ingest

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/lariat"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/summarize"
	"repro/internal/taccstats"
	"repro/internal/warehouse"
)

// testJob is one generated job ready to stream: its meta frame, its
// collected archive, and the exact record count the ledger must settle.
type testJob struct {
	meta    *JobMeta
	arch    *taccstats.Archive
	records uint64
}

// genTestJobs builds a deterministic workload from the cluster
// generator, capped so tests stay fast.
func genTestJobs(t *testing.T, seed uint64, n, maxHosts int, wallCap float64) []*testJob {
	t.Helper()
	gen := cluster.NewGenerator(cluster.Stampede(), cluster.DefaultConfig(seed))
	matcher := lariat.NewMatcher(apps.Catalog())
	cfg := taccstats.DefaultConfig()
	r := rng.New(seed ^ 0x1A2B3C)
	out := make([]*testJob, 0, n)
	for _, j := range gen.Generate(n) {
		if len(j.Hosts) > maxHosts {
			j.Hosts = j.Hosts[:maxHosts]
		}
		if j.Draw.WallSeconds > wallCap {
			j.Draw.WallSeconds = wallCap
		}
		arch := taccstats.Collect(cfg, taccstats.JobInfo{ID: j.ID, Start: j.Start, Hosts: j.Hosts},
			j.Draw, r.Split(uint64(len(out))))
		var recs uint64
		for i := range arch.Nodes {
			recs += uint64(len(arch.Nodes[i].Samples))
		}
		label, category := matcher.LabelJob(j)
		out = append(out, &testJob{
			meta: &JobMeta{
				JobID:    j.ID,
				User:     j.User,
				AppLabel: label,
				Category: category,
				Pop:      j.Population.String(),
				Nodes:    len(j.Hosts),
				Cores:    len(j.Hosts) * cfg.CoresPerNode,
				Submit:   j.Submit,
				Start:    j.Start,
				ExitCode: j.ExitCode,
			},
			arch:    arch,
			records: recs,
		})
	}
	return out
}

// totalRecords sums the workload's exact record count.
func totalRecords(jobs []*testJob) uint64 {
	var n uint64
	for _, tj := range jobs {
		n += tj.records
	}
	return n
}

// refSummary computes the job's summary the way the batch pipeline
// would see it after a spool round trip: canonical text encoding,
// host-sorted node order. The streamed summary must be bit-identical.
func refSummary(t *testing.T, arch *taccstats.Archive, cfg taccstats.Config) *summarize.Summary {
	t.Helper()
	nodes := append([]taccstats.NodeArchive{}, arch.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Host < nodes[j].Host })
	canon := &taccstats.Archive{JobID: arch.JobID, Nodes: nodes}
	var buf bytes.Buffer
	if err := canon.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := taccstats.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := summarize.Summarize(dec, cfg, summarize.Options{SkipBadNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// harness runs an in-process server on a loopback listener.
type harness struct {
	t    *testing.T
	srv  *Server
	sink *warehouse.Sharded
	reg  *obs.Registry
	addr string
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{t: t}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	h.reg = cfg.Obs
	if cfg.Sink == nil {
		h.sink = warehouse.NewSharded(warehouse.ShardedConfig{Shards: 4})
		cfg.Sink = h.sink
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.srv = srv
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.addr = lis.Addr().String()
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return h
}

// dialClient builds a client against the harness.
func (h *harness) dialClient(id string) *Client {
	h.t.Helper()
	c, err := NewClient(ClientConfig{Addr: h.addr, ID: id})
	if err != nil {
		h.t.Fatal(err)
	}
	return c
}

// sendJob streams one job: meta first, then each node's samples in
// chunks of chunkSize, round-robin across nodes to interleave hosts the
// way independent collectors would.
func sendJob(ctx context.Context, t *testing.T, c *Client, tj *testJob, chunkSize int) {
	t.Helper()
	if err := c.SendMeta(ctx, tj.meta); err != nil {
		t.Fatalf("job %s meta: %v", tj.meta.JobID, err)
	}
	offsets := make([]int, len(tj.arch.Nodes))
	for {
		sent := false
		for ni := range tj.arch.Nodes {
			node := &tj.arch.Nodes[ni]
			off := offsets[ni]
			if off >= len(node.Samples) {
				continue
			}
			end := off + chunkSize
			if end > len(node.Samples) {
				end = len(node.Samples)
			}
			chunk := &taccstats.Chunk{JobID: tj.arch.JobID, Host: node.Host, Samples: node.Samples[off:end]}
			if err := c.SendChunk(ctx, chunk); err != nil {
				t.Fatalf("job %s host %s: %v", tj.arch.JobID, node.Host, err)
			}
			offsets[ni] = end
			sent = true
		}
		if !sent {
			return
		}
	}
}

// drainAndCheck drains the server and asserts the conservation
// invariant exactly.
func (h *harness) drainAndCheck() Status {
	h.t.Helper()
	if h.srv.Draining() {
		h.t.Fatal("server reports draining before Drain")
	}
	h.srv.Drain()
	if !h.srv.Draining() {
		h.t.Fatal("server does not report draining after Drain (supremm-serve's /readyz keys on it)")
	}
	st := h.srv.Status()
	if st.Pending != 0 {
		h.t.Fatalf("pending %d records after drain", st.Pending)
	}
	if st.OpenJobs != 0 {
		h.t.Fatalf("%v jobs still open after drain", st.OpenJobs)
	}
	if err := st.Ledger.Check(0); err != nil {
		h.t.Fatal(err)
	}
	return st
}

func TestEndToEndConservationExact(t *testing.T) {
	h := newHarness(t, Config{Shards: 4})
	jobs := genTestJobs(t, 21, 8, 4, 4000)
	want := totalRecords(jobs)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := h.dialClient("e2e-client")
	for _, tj := range jobs {
		sendJob(ctx, t, c, tj, 3)
	}
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().RecordsAcked; got != want {
		t.Fatalf("client acked %d records, generated %d", got, want)
	}

	st := h.drainAndCheck()
	if st.Ledger.Received != want {
		t.Fatalf("server received %d records, client delivered %d", st.Ledger.Received, want)
	}
	if st.Ledger.Summarized != want || st.Ledger.DroppedSum != 0 {
		t.Fatalf("fault-free run must summarize everything: %+v", st.Ledger)
	}
	// /metrics carries the same numbers the ledger does.
	if got := h.reg.Counter("ingest_records_total", "outcome", "received").Value(); got != want {
		t.Fatalf("metric received %d != %d", got, want)
	}
	if got := h.reg.Counter("ingest_records_total", "outcome", "summarized").Value(); got != want {
		t.Fatalf("metric summarized %d != %d", got, want)
	}

	// Every streamed summary is bit-identical to the batch pipeline's
	// spool-round-trip summary, and meta flowed into the record.
	cfg := taccstats.DefaultConfig()
	for _, tj := range jobs {
		rec, ok := h.sink.Lookup(tj.meta.JobID)
		if !ok {
			t.Fatalf("job %s missing from warehouse", tj.meta.JobID)
		}
		if !reflect.DeepEqual(rec.Summary, refSummary(t, tj.arch, cfg)) {
			t.Fatalf("job %s: streamed summary diverged from batch summary", tj.meta.JobID)
		}
		if rec.User != tj.meta.User || rec.AppLabel != tj.meta.AppLabel || rec.Category != tj.meta.Category {
			t.Fatalf("job %s: meta not joined: %+v", tj.meta.JobID, rec)
		}
		if rec.Submit != tj.meta.Submit || rec.Start != tj.meta.Start || rec.Cores != tj.meta.Cores {
			t.Fatalf("job %s: accounting fields not joined: %+v", tj.meta.JobID, rec)
		}
	}
}

// TestShardCountInvariance streams the same workload at 1 and 8 shards;
// summaries and ledger totals must match exactly.
func TestShardCountInvariance(t *testing.T) {
	jobs := genTestJobs(t, 33, 6, 3, 3000)
	run := func(shards int) (*warehouse.Sharded, Status) {
		h := newHarness(t, Config{Shards: shards})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c := h.dialClient(fmt.Sprintf("inv-%d", shards))
		for _, tj := range jobs {
			sendJob(ctx, t, c, tj, 4)
		}
		if err := c.Close(ctx); err != nil {
			t.Fatal(err)
		}
		return h.sink, h.drainAndCheck()
	}
	sink1, st1 := run(1)
	sink8, st8 := run(8)
	if st1.Ledger.Received != st8.Ledger.Received || st1.Ledger.Summarized != st8.Ledger.Summarized {
		t.Fatalf("ledger totals differ across shard counts: %+v vs %+v", st1.Ledger, st8.Ledger)
	}
	for _, tj := range jobs {
		r1, ok1 := sink1.Lookup(tj.meta.JobID)
		r8, ok8 := sink8.Lookup(tj.meta.JobID)
		if !ok1 || !ok8 {
			t.Fatalf("job %s missing (1-shard %v, 8-shard %v)", tj.meta.JobID, ok1, ok8)
		}
		if !reflect.DeepEqual(r1.Summary, r8.Summary) {
			t.Fatalf("job %s: summary depends on shard count", tj.meta.JobID)
		}
	}
}

// validChunkFrame encodes a well-formed data frame for hand-rolled wire
// tests.
func validChunkFrame(t *testing.T, seq uint64, jobID, host string, t0 int64) *Frame {
	t.Helper()
	chunk := &taccstats.Chunk{JobID: jobID, Host: host, Samples: []taccstats.Sample{
		{Time: t0, Marker: taccstats.MarkerBegin, Records: []taccstats.Record{{Device: "cpu", Values: []uint64{1, 2, 3}}}},
		{Time: t0 + 600, Marker: taccstats.MarkerEnd, Records: []taccstats.Record{{Device: "cpu", Values: []uint64{4, 5, 6}}}},
	}}
	payload, err := taccstats.EncodeChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	return &Frame{Type: FrameData, Records: 2, Seq: seq, Payload: payload}
}

// wireConn is a hand-rolled protocol session for dedup/resume tests.
type wireConn struct {
	t    *testing.T
	conn net.Conn
}

func dialWire(t *testing.T, addr, clientID string) *wireConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	w := &wireConn{t: t, conn: conn}
	if err := WriteFrame(conn, &Frame{Type: FrameHello, Payload: []byte(clientID)}); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *wireConn) send(f *Frame) {
	w.t.Helper()
	if err := WriteFrame(w.conn, f); err != nil {
		w.t.Fatal(err)
	}
}

func (w *wireConn) ack() uint64 {
	w.t.Helper()
	w.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := ReadFrame(w.conn, 0)
	if err != nil {
		w.t.Fatal(err)
	}
	if f.Type != FrameAck {
		w.t.Fatalf("want ack, got frame type %d", f.Type)
	}
	return f.Seq
}

// TestDedupAndResume proves the exactly-once accounting across retries:
// a replayed sequence number is acked but never re-enters the ledger,
// and a reconnect resumes from the server's cumulative ack.
func TestDedupAndResume(t *testing.T) {
	h := newHarness(t, Config{Shards: 2})

	w := dialWire(t, h.addr, "resume-client")
	if got := w.ack(); got != 0 {
		t.Fatalf("fresh client must resume at 0, got %d", got)
	}
	f1 := validChunkFrame(t, 1, "900", "c1", 1000)
	w.send(f1)
	if got := w.ack(); got != 1 {
		t.Fatalf("want ack 1, got %d", got)
	}
	w.send(f1) // retry of an acked frame
	if got := w.ack(); got != 1 {
		t.Fatalf("duplicate must re-ack 1, got %d", got)
	}
	w.conn.Close()

	// Reconnect: the hello ack tells the client where to resume.
	w2 := dialWire(t, h.addr, "resume-client")
	if got := w2.ack(); got != 1 {
		t.Fatalf("resume ack must be 1, got %d", got)
	}
	w2.send(f1) // replay across connections: still a duplicate
	if got := w2.ack(); got != 1 {
		t.Fatalf("cross-connection duplicate must re-ack 1, got %d", got)
	}
	w2.send(validChunkFrame(t, 2, "900", "c2", 1000))
	if got := w2.ack(); got != 2 {
		t.Fatalf("want ack 2, got %d", got)
	}

	st := h.drainAndCheck()
	if st.Ledger.Received != 4 {
		t.Fatalf("two unique frames of 2 records each must count 4, got %d", st.Ledger.Received)
	}
	if got := h.reg.Counter("ingest_frames_total", "outcome", "duplicate").Value(); got != 2 {
		t.Fatalf("want 2 duplicate frames, got %d", got)
	}
}

// TestCorruptFrameAccounting: a data frame whose payload fails chunk
// decoding is conserved via its claimed header count.
func TestCorruptFrameAccounting(t *testing.T) {
	h := newHarness(t, Config{Shards: 2})
	w := dialWire(t, h.addr, "corrupt-client")
	w.ack()
	w.send(&Frame{Type: FrameData, Records: 5, Seq: 1, Payload: []byte("not an archive")})
	if got := w.ack(); got != 1 {
		t.Fatalf("corrupt frame still advances the cursor, got ack %d", got)
	}
	st := h.drainAndCheck()
	if st.Ledger.Received != 5 || st.Ledger.Dropped[ReasonDecode] != 5 {
		t.Fatalf("claimed count must be conserved as dropped{decode}: %+v", st.Ledger)
	}
}

// TestHostileWallDroppedAtSink streams a one-host, nine-sample job whose
// last sample lands 10^13 s after its first. It summarizes, but the
// warehouse refuses its wall time, so every record settles as
// dropped{sink}, nothing is warehoused, and the books still balance.
func TestHostileWallDroppedAtSink(t *testing.T) {
	h := newHarness(t, Config{Shards: 2})
	var tj *testJob
	for _, j := range genTestJobs(t, 21, 20, 1, 43200) {
		if len(j.arch.Nodes[0].Samples) >= 9 {
			tj = j
			break
		}
	}
	if tj == nil {
		t.Fatal("no generated job has nine samples")
	}
	node := &tj.arch.Nodes[0]
	node.Samples = append(node.Samples[:8:8], node.Samples[len(node.Samples)-1])
	node.Samples[8].Time = node.Samples[0].Time + 1e13
	tj.records = 9

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := h.dialClient("hostile-wall")
	sendJob(ctx, t, c, tj, 3)
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := h.drainAndCheck()
	if st.Ledger.Received != 9 || st.Ledger.Summarized != 0 || st.Ledger.Dropped[ReasonSink] != 9 {
		t.Fatalf("want 9 received, all dropped{sink}: %+v", st.Ledger)
	}
	if n := h.sink.Len(); n != 0 {
		t.Fatalf("the warehouse holds %d jobs, want none", n)
	}
}

// TestIdleTimeoutFinalize: a job whose stream dies without an epilog is
// finalized by the sweep and every record settles.
func TestIdleTimeoutFinalize(t *testing.T) {
	h := newHarness(t, Config{Shards: 2, IdleTimeout: 100 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := h.dialClient("idle-client")
	// Two cron samples, no end marker, no meta: only the sweep can
	// finalize this job.
	chunk := &taccstats.Chunk{JobID: "4242", Host: "c9", Samples: []taccstats.Sample{
		{Time: 1000, Marker: taccstats.MarkerBegin, Records: []taccstats.Record{{Device: "cpu", Values: []uint64{1, 2, 3}}}},
		{Time: 1600, Marker: taccstats.MarkerCron, Records: []taccstats.Record{{Device: "cpu", Values: []uint64{4, 5, 6}}}},
	}}
	if err := c.SendChunk(ctx, chunk); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.srv.Status().OpenJobs != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle sweep never finalized the job")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := h.reg.Counter("ingest_jobs_finalized_total", "outcome", "summarized", "trigger", "idle").Value() +
		h.reg.Counter("ingest_jobs_finalized_total", "outcome", "dropped", "trigger", "idle").Value(); got != 1 {
		t.Fatalf("want exactly one idle finalization, got %d", got)
	}
	st := h.drainAndCheck()
	if st.Ledger.Received != 2 {
		t.Fatalf("want 2 records received, got %d", st.Ledger.Received)
	}
}

// TestMetaAfterData: the epilog condition also fires when meta arrives
// last, and a job with no meta finalizes at drain with defaults.
func TestMetaAfterData(t *testing.T) {
	h := newHarness(t, Config{Shards: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := h.dialClient("late-meta")

	jobs := genTestJobs(t, 5, 2, 2, 2000)
	withMeta, noMeta := jobs[0], jobs[1]
	sendData := func(tj *testJob) {
		for ni := range tj.arch.Nodes {
			node := &tj.arch.Nodes[ni]
			chunk := &taccstats.Chunk{JobID: tj.arch.JobID, Host: node.Host, Samples: node.Samples}
			if err := c.SendChunk(ctx, chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Epilogs first, meta last: the meta frame itself must trigger
	// finalization.
	sendData(withMeta)
	if err := c.SendMeta(ctx, withMeta.meta); err != nil {
		t.Fatal(err)
	}
	// And a job that never gets a meta frame at all.
	sendData(noMeta)
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// The meta-completed job finalizes on the epilog path before any
	// drain flush.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := h.sink.Lookup(withMeta.meta.JobID); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("late meta never finalized the job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := h.reg.Counter("ingest_jobs_finalized_total", "outcome", "summarized", "trigger", "epilog").Value(); got != 1 {
		t.Fatalf("want 1 epilog finalization before drain, got %d", got)
	}
	h.drainAndCheck()
	rec, ok := h.sink.Lookup(noMeta.arch.JobID)
	if !ok {
		t.Fatalf("metaless job %s missing from warehouse", noMeta.arch.JobID)
	}
	if rec.User != "unknown" || rec.AppLabel != "NA" || rec.Category != "Unknown" {
		t.Fatalf("metaless job must carry defaults, got %+v", rec)
	}
}
