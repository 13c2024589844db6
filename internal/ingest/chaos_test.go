package ingest

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/warehouse"
)

// runChaosFirehose streams a seeded workload through a server with the
// given fault spec armed and returns the post-drain status plus the
// exact client-side delivery count.
func runChaosFirehose(t *testing.T, spec string, seed uint64, cfg Config) (Status, uint64) {
	t.Helper()
	faults, err := resilience.ParseFaults(seed, spec)
	if err != nil {
		t.Fatalf("ParseFaults(%q): %v", spec, err)
	}
	cfg.Faults = faults
	h := newHarness(t, cfg)

	jobs := genTestJobs(t, seed, 6, 3, 3000)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Two clients split the workload, as independent collector hosts
	// would; each retries across injected connection failures until
	// everything is acked.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var acked uint64
	for ci := 0; ci < 2; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := h.dialClient(fmt.Sprintf("chaos-%d", ci))
			for ji, tj := range jobs {
				if ji%2 != ci {
					continue
				}
				sendJob(ctx, t, c, tj, 4)
			}
			if err := c.Close(ctx); err != nil {
				t.Errorf("client %d: %v", ci, err)
				return
			}
			mu.Lock()
			acked += c.Stats().RecordsAcked
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return h.drainAndCheck(), acked
}

// TestConservationUnderChaos arms every ingest fault site with every
// fault kind (and a few compound specs) and proves the invariant the
// package doc promises: after drain, received == summarized + dropped
// exactly, per shard and globally, and the server's received count
// equals what the clients know was delivered.
func TestConservationUnderChaos(t *testing.T) {
	cases := []struct {
		name string
		spec string
		cfg  Config
		// wantDrops: the spec makes drops possible (not guaranteed); a
		// spec with rate 1 at a dropping site must drop something.
		mustDrop bool
	}{
		{"conn-error", "ingest.conn=error:0.05", Config{Shards: 4}, false},
		{"conn-latency", "ingest.conn=latency:0.1:2ms", Config{Shards: 4}, false},
		{"conn-panic", "ingest.conn=panic:0.03", Config{Shards: 4}, false},
		{"shard-error", "ingest.shard=error:0.1", Config{Shards: 4}, false},
		{"shard-latency", "ingest.shard=latency:0.2:1ms", Config{Shards: 4}, false},
		{"shard-panic", "ingest.shard=panic:0.05", Config{Shards: 4}, false},
		{"finalize-error", "ingest.finalize=error:1", Config{Shards: 4}, true},
		{"finalize-latency", "ingest.finalize=latency:0.5:2ms", Config{Shards: 4}, false},
		{"finalize-panic", "ingest.finalize=panic:1", Config{Shards: 4}, true},
		{"queue-pressure", "ingest.shard=latency:1:2ms", Config{Shards: 2, QueueDepth: 4}, false},
		{"everything", "ingest.conn=error:0.02,ingest.shard=error:0.05,ingest.finalize=panic:0.25", Config{Shards: 4}, false},
		{"single-shard", "ingest.shard=error:0.1,ingest.finalize=error:0.3", Config{Shards: 1}, false},
		{"eight-shard", "ingest.shard=error:0.1,ingest.finalize=error:0.3", Config{Shards: 8}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, acked := runChaosFirehose(t, c.spec, 0xC0FFEE, c.cfg)
			// drainAndCheck already asserted Check(0); pin the joins the
			// harness narrative promises.
			if st.Ledger.Received != acked {
				t.Fatalf("server received %d, clients delivered %d", st.Ledger.Received, acked)
			}
			if c.mustDrop && st.Ledger.DroppedSum == 0 {
				t.Fatalf("spec %q must drop records, ledger: %+v", c.spec, st.Ledger)
			}
			t.Logf("received=%d summarized=%d dropped=%v", st.Ledger.Received, st.Ledger.Summarized, st.Ledger.Dropped)
		})
	}
}

// TestChaosDropReasonsAreClosed pins that every drop lands under a
// documented reason — an unknown reason means the accounting taxonomy
// leaked.
func TestChaosDropReasonsAreClosed(t *testing.T) {
	known := map[string]bool{
		ReasonDecode: true, ReasonQueueFull: true, ReasonShard: true,
		ReasonFinalize: true, ReasonIncomplete: true, ReasonSink: true,
	}
	st, _ := runChaosFirehose(t, "ingest.shard=error:0.2,ingest.finalize=error:0.5", 7, Config{Shards: 4, QueueDepth: 8})
	if st.Ledger.DroppedSum == 0 {
		t.Fatal("chaos run dropped nothing; the test proves nothing")
	}
	for reason := range st.Ledger.Dropped {
		if !known[reason] {
			t.Fatalf("undocumented drop reason %q", reason)
		}
	}
}

// TestIngestFaultSpecRoundTrip pins the ingest sites through the
// resilience grammar (the exact spec the soak harness arms).
func TestIngestFaultSpecRoundTrip(t *testing.T) {
	spec := "ingest.conn=error:0.01,ingest.finalize=latency:0.3:5ms,ingest.shard=error:0.02"
	f, err := resilience.ParseFaults(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.String(); got != spec {
		t.Fatalf("spec round trip: %q != %q", got, spec)
	}
	sites := f.Sites()
	if len(sites) != 3 {
		t.Fatalf("want 3 armed sites, got %v", sites)
	}
}

// TestFullQueueWaitsThenSheds: routing into a full shard queue holds the
// connection until there is room, so a burst that outruns a slow shard
// is delivered whole; only a shard that stays full past routeWait sheds
// the frame, as dropped{queue_full}, and the books balance either way.
func TestFullQueueWaitsThenSheds(t *testing.T) {
	for _, c := range []struct {
		name    string
		latency time.Duration
		frames  uint64
		shed    uint64 // records
	}{
		{"burst", 5 * time.Millisecond, 8, 0},
		{"stuck", 3 * routeWait, 3, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			faults, err := resilience.ParseFaults(1, fmt.Sprintf("ingest.shard=latency:1:%s", c.latency))
			if err != nil {
				t.Fatal(err)
			}
			h := newHarness(t, Config{Shards: 1, QueueDepth: 1, Faults: faults})
			w := dialWire(t, h.addr, "full-queue-client")
			w.ack()
			var burst []byte
			for seq := uint64(1); seq <= c.frames; seq++ {
				burst = AppendFrame(burst, validChunkFrame(t, seq, fmt.Sprint("full-", seq), "c1", 1000))
			}
			if _, err := w.conn.Write(burst); err != nil {
				t.Fatal(err)
			}
			for got := uint64(0); got < c.frames; {
				got = w.ack()
			}
			st := h.drainAndCheck()
			if st.Ledger.Received != 2*c.frames || st.Ledger.Dropped[ReasonQueueFull] != c.shed {
				t.Fatalf("want %d records received, %d dropped{queue_full}: %+v", 2*c.frames, c.shed, st.Ledger)
			}
		})
	}
}

// gateSink holds the finalize of one job until gate closes, which
// stalls that job's shard; every other record goes straight through.
type gateSink struct {
	*warehouse.Sharded
	id      string
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateSink) Ingest(r *warehouse.Record) error {
	if r.JobID == g.id {
		close(g.entered)
		<-g.gate
	}
	return g.Sharded.Ingest(r)
}

// TestStalledShardLeavesOthersFlowing stalls one of two shards on a job
// whose finalize never returns, then streams jobs of both shards,
// interleaved, over one connection. The stalled shard holds the
// connection for one routeWait, not one a frame: every frame is acked
// well inside a second, the stalled shard's frames past its queue shed
// as dropped{queue_full}, and the other shard drops nothing and files
// every one of its jobs. Once the shard is released and its queue has
// emptied, routing to it waits for room again: a burst of its jobs
// sheds nothing.
func TestStalledShardLeavesOthersFlowing(t *testing.T) {
	wh := warehouse.NewSharded(warehouse.ShardedConfig{})
	jobs := genTestJobs(t, 29, 60, 2, 3000)
	sink := &gateSink{Sharded: wh, id: jobs[0].meta.JobID, entered: make(chan struct{}), gate: make(chan struct{})}
	h := newHarness(t, Config{Shards: 2, QueueDepth: 4, Sink: sink})
	defer close(sink.gate)
	stalled := h.srv.shardFor(sink.id)
	var same, other []*testJob
	for _, tj := range jobs[1:] {
		if h.srv.shardFor(tj.meta.JobID) == stalled {
			same = append(same, tj)
		} else {
			other = append(other, tj)
		}
	}
	late := same[len(same)-8:]
	same = same[:len(same)-8]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := h.dialClient("stall-client")
	sendJob(ctx, t, c, jobs[0], 4)
	select {
	case <-sink.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the stalling job never reached the sink")
	}
	start := time.Now()
	framesBefore := c.Stats().FramesSent
	for i := 0; i < max(len(same), len(other)); i++ {
		if i < len(same) {
			sendJob(ctx, t, c, same[i], 4)
		}
		if i < len(other) {
			sendJob(ctx, t, c, other[i], 4)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	var otherRecs uint64
	for _, tj := range other {
		otherRecs += tj.records
	}
	t.Logf("%d frames (%d jobs on the stalled shard, %d on the other) acked in %v: %.0f records/s on the other shard",
		c.Stats().FramesSent-framesBefore, len(same), len(other), elapsed, float64(otherRecs)/elapsed.Seconds())
	if elapsed > time.Second {
		t.Fatalf("a stalled shard held the connection %v", elapsed)
	}
	sink.gate <- struct{}{} // the stalling job's finalize goes through
	for len(h.srv.shards[stalled].q) > 0 {
		time.Sleep(time.Millisecond)
	}
	shed := h.srv.Status().Ledger.Dropped[ReasonQueueFull]
	if shed == 0 {
		t.Fatalf("the stalled shard shed nothing: %+v", h.srv.Status().Ledger)
	}
	for _, tj := range late {
		sendJob(ctx, t, c, tj, 4)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := h.drainAndCheck()
	if st.Ledger.Dropped[ReasonQueueFull] != shed {
		t.Fatalf("the released shard shed %d more records", st.Ledger.Dropped[ReasonQueueFull]-shed)
	}
	for _, ps := range st.Ledger.PerShard {
		if ps.Shard != stalled && ps.Dropped[ReasonQueueFull] > 0 {
			t.Fatalf("shard %d shed records beside the stalled one: %+v", ps.Shard, ps)
		}
	}
	for _, tj := range other {
		if _, ok := lookup(wh, tj.meta.JobID); !ok {
			t.Fatalf("job %s of the flowing shard was not filed", tj.meta.JobID)
		}
	}
}
