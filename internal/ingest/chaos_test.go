package ingest

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
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
	for _, reason := range st.Ledger.Reasons() {
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
