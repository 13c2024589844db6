package loadgen

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/warehouse"
)

func TestParseIngestSpecDefaults(t *testing.T) {
	cfg, err := ParseIngestSpec("url=http://127.0.0.1:8080,addr=127.0.0.1:9301")
	if err != nil {
		t.Fatal(err)
	}
	want := IngestConfig{
		BaseURL:  "http://127.0.0.1:8080",
		Addr:     "127.0.0.1:9301",
		Jobs:     defIngestJobs,
		Conns:    defIngestConns,
		MaxHosts: defIngestMaxHosts,
		WallCap:  defIngestWallCap,
		Duration: defIngestDur,
	}
	if cfg != want {
		t.Fatalf("defaults: got %+v want %+v", cfg, want)
	}
}

func TestIngestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"url=http://h:2,addr=127.0.0.1:9301",
		"url=https://h:2,addr=10.0.0.1:7,jobs=64,conns=8,hosts=2,wall=1200,dur=10s,seed=99",
		"addr=h:1 jobs=3\tseed=5 url=http://h:2", // mixed separators
	}
	for _, s := range specs {
		cfg, err := ParseIngestSpec(s)
		if err != nil {
			t.Fatalf("ParseIngestSpec(%q): %v", s, err)
		}
		canon := cfg.IngestSpec()
		again, err := ParseIngestSpec(canon)
		if err != nil {
			t.Fatalf("reparse canonical %q: %v", canon, err)
		}
		if again != cfg {
			t.Fatalf("spec %q: round trip drifted: %+v != %+v", s, again, cfg)
		}
	}
	// chunk= is not a key: every frame carries ingestChunk samples.
	if _, err := ParseIngestSpec("url=http://h:2,addr=10.0.0.1:7,jobs=64,conns=8,hosts=2,wall=1200,dur=10s,chunk=16,seed=99"); err == nil || !strings.Contains(err.Error(), `unknown ingest spec key "chunk"`) {
		t.Fatalf("chunk=16: err = %v, want an unknown-key refusal", err)
	}
}

func TestParseIngestSpecErrors(t *testing.T) {
	bad := []string{
		"",                                         // empty
		"url=http://h:2,jobs=3",                    // addr missing
		"addr=a",                                   // url missing
		"url=ftp://h:2,addr=a",                     // bad url scheme
		"url=http://h:2,addr=a,jobs=0",             // out of range
		"url=http://h:2,addr=a,conns=300",          // out of range
		"url=http://h:2,addr=a,chunk=70000",        // unknown key (chunk is a constant)
		"url=http://h:2,addr=a,dur=-1s",            // negative
		"url=http://h:2,addr=a,addr=b",             // dup key
		"url=http://h:2,addr=a,warp=9",             // unknown key
		"url=http://h:2,addr=a,rps=5",              // HTTP-only key
		"url=http://h:2,addr=a,jobs",               // not k=v
		"url=http://h:2,addr=a,wall=banana",        // bad float
		"url=http://h:2,addr=a,seed=-1",            // bad uint
		"url=http://h:2,addr=a,jobs=1,hosts=65",    // out of range
		"url=http://h:2,addr=a,jobs=1,wall=0",      // non-positive
		"url=http://h:2,addr=a,jobs=1,dur=0s",      // non-positive
		"url=http://h:2,addr=a,jobs=1,chunk=0",     // unknown key (chunk is a constant)
		"url=http://h:2,addr=a,jobs=1,conns=0",     // non-positive
		"url=http://h:2,addr=a,jobs=1,hosts=0",     // non-positive
		"url=http://h:2,addr=a,jobs=100001",        // out of range
		"url=http://h:2,addr=a,jobs=1,seed=999==9", // mangled pair
	}
	for _, s := range bad {
		if _, err := ParseIngestSpec(s); err == nil {
			t.Errorf("ParseIngestSpec(%q): want error, got nil", s)
		}
	}
	for _, s := range []string{"url=http://h:2,addr=a,chunk=70000", "url=http://h:2,addr=a,jobs=1,chunk=0"} {
		if _, err := ParseIngestSpec(s); err == nil || !strings.Contains(err.Error(), `unknown ingest spec key "chunk"`) {
			t.Errorf("ParseIngestSpec(%q): err = %v, want an unknown-key refusal", s, err)
		}
	}
}

// TestRunIngestReconciles is the harness proving itself in-process: a
// real server behind a real TCP listener, the firehose replayed against
// it, and ReconcileIngest joining the client's acks, the /debug/ingest
// ledger, and the /metrics counters exactly.
func TestRunIngestReconciles(t *testing.T) {
	reg := obs.NewRegistry()
	sink := warehouse.NewSharded(warehouse.ShardedConfig{})
	srv, err := ingest.NewServer(ingest.Config{Shards: 4, Sink: sink, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/ingest", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(srv.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		reg.WritePrometheus(w)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg, err := ParseIngestSpec("url=" + hs.URL + ",addr=" + ln.Addr().String() + ",jobs=6,conns=3,hosts=2,wall=1500,dur=200ms,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunIngest(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsAcked != rep.RecordsGenerated || rep.RecordsGenerated == 0 {
		t.Fatalf("acked %d of %d generated", rep.RecordsAcked, rep.RecordsGenerated)
	}
	if rep.Spec != cfg.IngestSpec() {
		t.Fatalf("report spec %q != config spec %q", rep.Spec, cfg.IngestSpec())
	}

	chk, err := ReconcileIngest(ctx, cfg.BaseURL, rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconcile != chk {
		t.Fatal("ReconcileIngest did not fill rep.Reconcile")
	}
	if len(chk.Mismatches) != 0 {
		t.Fatalf("reconciliation mismatches: %v", chk.Mismatches)
	}
	if chk.Ledger.Received != rep.RecordsGenerated {
		t.Fatalf("ledger received %d, generated %d", chk.Ledger.Received, rep.RecordsGenerated)
	}
	// The sink holds exactly the jobs the workload generated.
	if got := sink.Len(); got != cfg.Jobs {
		t.Fatalf("warehouse holds %d jobs, want %d", got, cfg.Jobs)
	}
	// The streamed metadata is Lariat's view of each job, not the
	// generator's: a custom code lands Uncategorized or NA, never under
	// its generated name.
	custom := 0
	for _, rec := range sink.Snapshot().Records {
		if rec.Pop == cluster.PopCommunity {
			continue
		}
		custom++
		if !rec.Unlabeled() {
			t.Errorf("%v job %s streamed with application label %q", rec.Pop, rec.JobID, rec.AppLabel)
		}
	}
	if custom == 0 {
		t.Fatal("seeded workload holds no custom-code job; the label check is vacuous")
	}
}

func TestPromSum(t *testing.T) {
	text := strings.Join([]string{
		`# HELP ingest_records_total records`,
		`ingest_records_total{outcome="received",shard="0"} 3`,
		`ingest_records_total{outcome="received",shard="1"} 4`,
		`ingest_records_total{outcome="dropped",reason="decode",shard="0"} 2`,
		`ingest_records_total_other{outcome="received"} 100`,
		`other_family{outcome="received"} 50`,
	}, "\n")
	// The _other family shares the prefix but not the label block start,
	// so only the two real samples count.
	if got := promSum(text, "ingest_records_total", `outcome="received"`); got != 7 {
		t.Fatalf("received sum = %d, want 7", got)
	}
	if got := promSum(text, "ingest_records_total", `outcome="dropped"`); got != 2 {
		t.Fatalf("dropped sum = %d, want 2", got)
	}
	if got := promSum(text, "ingest_records_total", `outcome="missing"`); got != 0 {
		t.Fatalf("missing sum = %d, want 0", got)
	}
}
