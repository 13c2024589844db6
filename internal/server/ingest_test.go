package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/warehouse"
)

// TestIngestArmedServer drives a server with the ingest path mounted the
// way supremm-serve mounts it: one registry, one recorder, one warehouse
// seeded with a boot workload and grown by a replayed firehose. The
// firehose reconciles exactly through the server's own /debug/ingest and
// /metrics, the warehouse routes count boot and ingested jobs together,
// and /readyz turns 503 once the ingest path drains.
func TestIngestArmedServer(t *testing.T) {
	a := chaosFixture(t)
	boot := a.store.Records()
	sink := warehouse.NewSharded(warehouse.ShardedConfig{})
	for _, r := range boot {
		// The firehose numbers its jobs the way the boot generator does;
		// a prefix keeps the two sets disjoint, so their counts add.
		cp := *r
		cp.JobID = "boot-" + r.JobID
		if err := sink.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	rec := flight.NewRecorder(flight.DefaultConfig())
	ing, err := ingest.NewServer(ingest.Config{Sink: sink, Obs: reg, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ing.Serve(ln)
	t.Cleanup(ing.Drain)

	models := core.NewModelManager(reg)
	if _, err := models.ReloadFromFile(a.pathA); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(sink, nil, 6400, WithMetrics(reg), WithModelManager(models),
		WithFlightRecorder(rec), WithIngest(ing)))
	t.Cleanup(srv.Close)

	readyz := func() (int, string) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(readAll(t, resp))
	}
	if code, body := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d %s, want 200", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg, err := loadgen.ParseIngestSpec("url=" + srv.URL + ",addr=" + ln.Addr().String() + ",jobs=12,conns=3,hosts=2,wall=1500,dur=200ms,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.RunIngest(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := loadgen.ReconcileIngest(ctx, srv.URL, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(chk.Mismatches) != 0 || chk.Ledger.Received != rep.RecordsGenerated {
		t.Fatalf("reconciliation: mismatches %v, ledger received %d of %d generated",
			chk.Mismatches, chk.Ledger.Received, rep.RecordsGenerated)
	}

	ingested := int(reg.Counter("ingest_jobs_finalized_total", "outcome", "summarized", "trigger", "epilog").Value())
	if ingested != cfg.Jobs {
		t.Fatalf("%d jobs finalized by epilog, want all %d", ingested, cfg.Jobs)
	}
	var overview warehouse.Aggregate
	getJSON(t, srv.URL+"/api/overview", &overview)
	if want := len(boot) + ingested; overview.Jobs != want {
		t.Fatalf("/api/overview jobs %d, want %d boot + %d ingested", overview.Jobs, len(boot), ingested)
	}

	ing.Drain()
	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "ingest draining") {
		t.Fatalf("/readyz after drain = %d %s, want 503 naming ingest draining", code, body)
	}
}

// TestWarehouseOrderParity: serving a Sharded instead of a Store changes
// only the order the cut hands records to the queries (job id rather
// than ingest order). Fed the same records in job-id order, a Store
// answers every warehouse route with the same bytes.
func TestWarehouseOrderParity(t *testing.T) {
	recs := chaosFixture(t).store.Records()
	slices.SortFunc(recs, func(a, b *warehouse.Record) int { return strings.Compare(a.JobID, b.JobID) })
	store := warehouse.NewStore()
	sharded := warehouse.NewSharded(warehouse.ShardedConfig{Shards: 3})
	for i := range recs {
		if err := store.Ingest(recs[i]); err != nil {
			t.Fatal(err)
		}
		// Reverse order into the Sharded: its cut sorts by job id anyway.
		if err := sharded.Ingest(recs[len(recs)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	bySharded := httptest.NewServer(New(sharded, nil, 6400))
	t.Cleanup(bySharded.Close)
	byStore := httptest.NewServer(New(store, nil, 6400))
	t.Cleanup(byStore.Close)

	paths := []string{"/api/overview", "/api/utilization", "/api/rollup"}
	for _, d := range warehouse.Dimensions {
		paths = append(paths, "/api/groupby?dim="+string(d))
		for _, inner := range warehouse.Dimensions {
			paths = append(paths, "/api/drilldown?outer="+string(d)+"&inner="+string(inner))
		}
	}
	body := func(base, path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	for _, p := range paths {
		if got, want := body(bySharded.URL, p), body(byStore.URL, p); got != want {
			t.Errorf("%s differs:\n sharded: %.200s\n store:   %.200s", p, got, want)
		}
	}
}
