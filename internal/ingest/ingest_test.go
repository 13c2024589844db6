package ingest

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/lariat"
	"repro/internal/obs"
	"repro/internal/obs/flight"
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

// find returns the first record of the named device within a sample,
// or nil.
func find(s *taccstats.Sample, device string) *taccstats.Record {
	for i := range s.Records {
		if s.Records[i].Device == device {
			return &s.Records[i]
		}
	}
	return nil
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
		h.sink = warehouse.NewSharded(warehouse.ShardedConfig{})
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
		rec, ok := lookup(h.sink, tj.meta.JobID)
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
		r1, ok1 := lookup(sink1, tj.meta.JobID)
		r8, ok8 := lookup(sink8, tj.meta.JobID)
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

// TestAcksCoalesceWithoutStalling holds the server's ack to one per
// read of its connection buffer: frames that arrive in one write share
// one cumulative ack. And the ack never waits on a frame that has not
// arrived whole: with half of the next frame in, the frames before it
// are acknowledged while the rest of it is still unwritten.
func TestAcksCoalesceWithoutStalling(t *testing.T) {
	h := newHarness(t, Config{Shards: 2})
	w := dialWire(t, h.addr, "coalesce-client")
	if got := w.ack(); got != 0 {
		t.Fatalf("fresh client must resume at 0, got %d", got)
	}
	frames := func(first, n uint64) []byte {
		var b []byte
		for seq := first; seq < first+n; seq++ {
			b = AppendFrame(b, validChunkFrame(t, seq, fmt.Sprint("coalesce-", seq), "c1", 1000))
		}
		return b
	}
	write := func(b []byte) {
		t.Helper()
		if _, err := w.conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	const k, k2 = 5, 3
	write(frames(1, k))
	if got := w.ack(); got != k {
		t.Fatalf("%d frames in one write: first ack %d, want a single ack of %d", k, got, k)
	}
	next := frames(k+k2+1, 1)
	half := headerSize + (len(next)-headerSize)/2
	write(append(frames(k+1, k2), next[:half]...))
	if got := w.ack(); got != k+k2 {
		t.Fatalf("%d whole frames and half of one: ack %d, want %d before the rest is written", k2, got, k+k2)
	}
	write(next[half:])
	if got := w.ack(); got != k+k2+1 {
		t.Fatalf("the rest of the frame: ack %d, want %d", got, k+k2+1)
	}
	st := h.drainAndCheck()
	if st.Ledger.Received != 2*(k+k2+1) {
		t.Fatalf("received %d records, sent %d", st.Ledger.Received, 2*(k+k2+1))
	}
}

// TestInterleavedJobsRecycleChunks feeds a server one connection's
// frames of two multi-host jobs, the jobs' chunks alternating, and lets
// the shards take each frame before the next is read. On one processor
// the pool then hands every frame the chunk the frame before left, of
// the other job, while both jobs' host folds are open. Both jobs must
// still summarize exactly as the batch pipeline does. (Under -race a
// shard that gave its chunk back before its last read of it is also a
// reported race.)
func TestInterleavedJobsRecycleChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := newHarness(t, Config{Shards: 2})
	var pair []*testJob
	for _, tj := range genTestJobs(t, 37, 12, 3, 6000) {
		if len(tj.arch.Nodes) >= 2 && len(pair) < 2 {
			pair = append(pair, tj)
		}
	}
	if len(pair) < 2 {
		t.Fatal("fewer than two generated jobs have two hosts")
	}
	// frames lists a job's data frames of two samples each, round-robin
	// over its hosts.
	frames := func(tj *testJob) []*Frame {
		var out []*Frame
		for off := 0; ; off += 2 {
			n := len(out)
			for ni := range tj.arch.Nodes {
				node := &tj.arch.Nodes[ni]
				if off >= len(node.Samples) {
					continue
				}
				samples := node.Samples[off:min(off+2, len(node.Samples))]
				payload, err := taccstats.EncodeChunk(&taccstats.Chunk{JobID: tj.arch.JobID, Host: node.Host, Samples: samples})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, &Frame{Type: FrameData, Records: uint16(len(samples)), Payload: payload})
			}
			if len(out) == n {
				return out
			}
		}
	}
	var stream []*Frame
	for _, tj := range pair {
		meta, err := tj.meta.Encode()
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, &Frame{Type: FrameMeta, Payload: meta})
	}
	a, b := frames(pair[0]), frames(pair[1])
	for i := 0; i < max(len(a), len(b)); i++ {
		for _, list := range [][]*Frame{a, b} {
			if i < len(list) {
				stream = append(stream, list[i])
			}
		}
	}
	client := h.srv.client("interleave-client")
	for i, f := range stream {
		f.Seq = uint64(i + 1)
		h.srv.processFrame(client, f, time.Now())
		for _, sh := range h.srv.shards {
			for len(sh.q) > 0 {
				runtime.Gosched()
			}
		}
	}
	st := h.drainAndCheck()
	if want := pair[0].records + pair[1].records; st.Ledger.Summarized != want {
		t.Fatalf("summarized %d records, sent %d: %+v", st.Ledger.Summarized, want, st.Ledger)
	}
	for _, tj := range pair {
		rec, ok := lookup(h.sink, tj.meta.JobID)
		if !ok {
			t.Fatalf("job %s missing from warehouse", tj.meta.JobID)
		}
		if !reflect.DeepEqual(rec.Summary, refSummary(t, tj.arch, taccstats.DefaultConfig())) {
			t.Fatalf("job %s: streamed summary diverged from batch summary", tj.meta.JobID)
		}
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

// TestBackwardsCounterDropsNode streams a multi-host job in which one
// host's mem[1] counter reads lower than the sample before. That host's
// records settle as dropped{incomplete}, the rest are summarized, the
// warehoused summary equals the batch one, and the books balance.
func TestBackwardsCounterDropsNode(t *testing.T) {
	h := newHarness(t, Config{Shards: 2})
	var tj *testJob
	for _, j := range genTestJobs(t, 21, 20, 3, 4000) {
		if len(j.arch.Nodes) >= 2 && len(j.arch.Nodes[0].Samples) >= 3 {
			tj = j
			break
		}
	}
	if tj == nil {
		t.Fatal("no generated job has two hosts and three samples")
	}
	bad := &tj.arch.Nodes[0]
	mem := find(&bad.Samples[2], taccstats.DevMem)
	mem.Values = append([]uint64(nil), mem.Values...)
	mem.Values[1] = 0

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := h.dialClient("backwards-counter")
	sendJob(ctx, t, c, tj, 2)
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := h.drainAndCheck()
	badRecs := uint64(len(bad.Samples))
	if st.Ledger.Received != tj.records || st.Ledger.Summarized != tj.records-badRecs ||
		st.Ledger.Dropped[ReasonIncomplete] != badRecs || st.Ledger.DroppedSum != badRecs {
		t.Fatalf("want %d received, %d dropped{incomplete}: %+v", tj.records, badRecs, st.Ledger)
	}
	rec, ok := lookup(h.sink, tj.meta.JobID)
	if !ok {
		t.Fatalf("job %s missing from warehouse", tj.meta.JobID)
	}
	if !reflect.DeepEqual(rec.Summary.DroppedNodes, []string{bad.Host}) {
		t.Fatalf("dropped nodes %v, want [%s]", rec.Summary.DroppedNodes, bad.Host)
	}
	if !reflect.DeepEqual(rec.Summary, refSummary(t, tj.arch, taccstats.DefaultConfig())) {
		t.Fatal("streamed summary diverged from batch summary")
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
	idle := func() uint64 {
		return h.reg.Counter("ingest_jobs_finalized_total", "outcome", "summarized", "trigger", "idle").Value() +
			h.reg.Counter("ingest_jobs_finalized_total", "outcome", "dropped", "trigger", "idle").Value()
	}
	// Close returns once the frames are acked, which is when they are
	// routed, not when a shard has opened the job: wait for the
	// finalization itself, since the open-job count may still read 0.
	deadline := time.Now().Add(5 * time.Second)
	for idle() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle sweep never finalized the job")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got, open := idle(), h.srv.Status().OpenJobs; got != 1 || open != 0 {
		t.Fatalf("want exactly one idle finalization and no open job, got %d and %v open", got, open)
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
		if _, ok := lookup(h.sink, withMeta.meta.JobID); ok {
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
	rec, ok := lookup(h.sink, noMeta.arch.JobID)
	if !ok {
		t.Fatalf("metaless job %s missing from warehouse", noMeta.arch.JobID)
	}
	if rec.User != "unknown" || rec.AppLabel != "NA" || rec.Category != "Unknown" {
		t.Fatalf("metaless job must carry defaults, got %+v", rec)
	}
}

// TestFinalizeStagesTimed streams summarized jobs into a warehouse that
// already holds a cut of 2 000 jobs, and requires every kept finalize
// event to carry a decode, a summarize and a warehouse stage, its
// records, and a queue wait its duration holds: /debug/requests then
// shows what reading the job's frames, combining the host folds and the
// warehouse fold cost, and how long its messages waited for the shard.
// It logs the decode and warehouse stages' and the queue wait's medians.
func TestFinalizeStagesTimed(t *testing.T) {
	rec := flight.NewRecorder(flight.Config{Capacity: 256})
	h := newHarness(t, Config{Shards: 2, Flight: rec})
	for i := 0; i < 2000; i++ {
		err := h.sink.Ingest(&warehouse.Record{JobID: fmt.Sprintf("seed-%04d", i), User: fmt.Sprint("user-", i%300),
			AppLabel: "NAMD", Category: "MD", Nodes: 1 + i%16, Cores: 16, Submit: int64(i), Start: int64(2 * i), WallSeconds: 600})
		if err != nil {
			t.Fatal(err)
		}
	}
	h.sink.Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := h.dialClient("stages-client")
	jobs := genTestJobs(t, 13, 24, 2, 2000)
	for _, tj := range jobs {
		sendJob(ctx, t, c, tj, 8)
	}
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	h.drainAndCheck()
	events, n := rec.Query(flight.Filter{Route: "/ingest/finalize", Status: 200, Limit: -1})
	if n == 0 {
		t.Fatal("no summarized finalize event was kept")
	}
	var dec, wh, queue []int64
	for _, ev := range events {
		st := ev.Stages
		if st[flight.StageDecode] <= 0 || st[flight.StageSummarize] <= 0 || st[flight.StageWarehouse] <= 0 {
			t.Fatalf("job %s finalized with stages %+v: decode, summarize and warehouse must all be > 0", ev.ID, st)
		}
		if ev.Rows <= 0 || ev.QueueNS < 0 || ev.HandlerNS < st[flight.StageDecode]+st[flight.StageSummarize]+st[flight.StageWarehouse] {
			t.Fatalf("job %s finalized with rows %d, queue %d ns, handler %d ns, stages %+v: want its records, a queue wait, and a handler time holding the stages",
				ev.ID, ev.Rows, ev.QueueNS, ev.HandlerNS, st)
		}
		dec = append(dec, st[flight.StageDecode])
		wh = append(wh, st[flight.StageWarehouse])
		queue = append(queue, ev.QueueNS)
	}
	for _, s := range [][]int64{dec, wh, queue} {
		slices.Sort(s)
	}
	t.Logf("medians over %d of %d finalize events: decode %d ns, warehouse %d ns, queue wait %d ns",
		len(wh), len(jobs), dec[len(dec)/2], wh[len(wh)/2], queue[len(queue)/2])
}

// lookup finds a job in the warehouse's current cut by id.
func lookup(wh *warehouse.Sharded, id string) (*warehouse.Record, bool) {
	for _, r := range wh.Records() {
		if r.JobID == id {
			return r, true
		}
	}
	return nil, false
}
