package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/resilience"
	"repro/internal/warehouse"
)

// discoverServer builds an instrumented server over a small pipeline
// run. The discovery manager starts empty, so tests exercise the refit
// path over the store's real Uncategorized/NA population (91 jobs at
// seed 91 / 200 total).
func discoverServer(t *testing.T, opts ...Option) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	all := append([]Option{WithMetrics(reg)}, opts...)
	srv := httptest.NewServer(New(pipeline(t, 91, 200).Store, nil, 6400, all...))
	t.Cleanup(srv.Close)
	return srv, reg
}

// discoverGetReply mirrors the GET /api/discover body.
type discoverGetReply struct {
	Generation        uint64    `json:"generation"`
	K                 int       `json:"k"`
	Rows              int       `json:"rows"`
	Features          []string  `json:"features"`
	ExplainedVariance []float64 `json:"explainedVariance"`
	AnomalyDistance   float64   `json:"anomalyDistance"`
	Clusters          []struct {
		ID            int                `json:"id"`
		Size          int                `json:"size"`
		Share         float64            `json:"share"`
		Anomalous     bool               `json:"anomalous"`
		Center        map[string]float64 `json:"center"`
		TopDeviations []struct {
			Feature string  `json:"feature"`
			Z       float64 `json:"z"`
		} `json:"topDeviations"`
	} `json:"clusters"`
}

// fullRow builds a feature map covering every name, with deterministic
// values perturbed by variant.
func fullRow(names []string, variant int) map[string]float64 {
	m := make(map[string]float64, len(names))
	for j, name := range names {
		m[name] = float64((variant*5+j*3)%13) / 4
	}
	return m
}

// TestDiscoverLifecycle walks the discovery pack end to end: empty
// manager answers 503, a refit fits the warehouse's unlabeled population
// and hot-swaps generation 1, the cluster report serves, and per-job
// assignment scores against the new fit.
func TestDiscoverLifecycle(t *testing.T) {
	srv, reg := discoverServer(t)

	// Nothing fitted yet: report and assignment both refuse with 503.
	if resp, body := get(t, srv.URL+"/api/discover"); resp.StatusCode != 503 {
		t.Fatalf("GET /api/discover before refit: status %d (%s)", resp.StatusCode, body)
	}
	code, body := postJSON(t, srv.URL+"/api/discover/assign",
		map[string]any{"features": map[string]float64{"x": 1}})
	if code != 503 {
		t.Fatalf("assign before refit: status %d (%s)", code, body)
	}
	if got := reg.Counter("discover_assign_outcomes_total", "outcome", "no_model").Value(); got != 1 {
		t.Errorf("no_model outcomes = %d, want 1", got)
	}

	// Refit over the store's Uncategorized/NA jobs.
	code, body = postJSON(t, srv.URL+"/api/discover",
		map[string]any{"k": 4, "restarts": 3, "seed": 9})
	if code != 200 {
		t.Fatalf("refit: status %d (%s)", code, body)
	}
	var refit struct {
		Generation uint64 `json:"generation"`
		K          int    `json:"k"`
		Rows       int    `json:"rows"`
	}
	if err := json.Unmarshal(body, &refit); err != nil {
		t.Fatal(err)
	}
	if refit.Generation != 1 || refit.K != 4 || refit.Rows == 0 {
		t.Fatalf("refit reply %+v: want generation 1, k 4, rows > 0", refit)
	}
	if got := reg.Counter("discover_swap_total", "outcome", "ok").Value(); got != 1 {
		t.Errorf("discover_swap_total{ok} = %d, want 1", got)
	}
	if got := reg.Gauge("discover_generation").Value(); got != 1 {
		t.Errorf("discover_generation = %v, want 1", got)
	}

	// The cluster report: sizes account for every row, shares sum to 1,
	// the explained-variance curve is monotone, centers are keyed by
	// feature name in original units.
	var rep discoverGetReply
	if code := getJSON(t, srv.URL+"/api/discover", &rep); code != 200 {
		t.Fatalf("GET /api/discover: status %d", code)
	}
	if rep.Generation != 1 || rep.K != 4 || len(rep.Clusters) != 4 {
		t.Fatalf("report generation %d k %d clusters %d", rep.Generation, rep.K, len(rep.Clusters))
	}
	total, share := 0, 0.0
	for _, c := range rep.Clusters {
		total += c.Size
		share += c.Share
		if c.Size > 0 && len(c.TopDeviations) == 0 {
			t.Errorf("cluster %d has no top deviations", c.ID)
		}
		for _, f := range rep.Features {
			if _, ok := c.Center[f]; !ok && c.Size > 0 {
				t.Errorf("cluster %d center missing feature %s", c.ID, f)
			}
		}
	}
	if total != rep.Rows {
		t.Errorf("cluster sizes sum to %d, rows %d", total, rep.Rows)
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", share)
	}
	for i := 1; i < len(rep.ExplainedVariance); i++ {
		if rep.ExplainedVariance[i] < rep.ExplainedVariance[i-1] {
			t.Errorf("explained variance not monotone at %d: %v", i, rep.ExplainedVariance)
		}
	}

	// Assignment lands in one of the k clusters and repeats byte-for-byte.
	code, first := postJSON(t, srv.URL+"/api/discover/assign",
		map[string]any{"features": fullRow(rep.Features, 1)})
	if code != 200 {
		t.Fatalf("assign: status %d (%s)", code, first)
	}
	var a struct {
		Cluster    int     `json:"cluster"`
		Distance   float64 `json:"distance"`
		Generation uint64  `json:"generation"`
	}
	if err := json.Unmarshal(first, &a); err != nil {
		t.Fatal(err)
	}
	if a.Cluster < 0 || a.Cluster >= 4 || a.Generation != 1 || a.Distance < 0 {
		t.Fatalf("assign reply %+v out of contract", a)
	}
	if _, again := postJSON(t, srv.URL+"/api/discover/assign",
		map[string]any{"features": fullRow(rep.Features, 1)}); !bytes.Equal(first, again) {
		t.Errorf("repeated assignment diverges:\n%s\n%s", first, again)
	}
	assigned := reg.Counter("discover_assign_outcomes_total", "outcome", "assigned").Value()
	anomalous := reg.Counter("discover_assign_outcomes_total", "outcome", "anomalous").Value()
	if assigned+anomalous != 2 {
		t.Errorf("assigned %d + anomalous %d outcomes, want 2 total", assigned, anomalous)
	}

	// A second refit hot-swaps generation 2 under the same schema.
	if code, body := postJSON(t, srv.URL+"/api/discover",
		map[string]any{"k": 6, "seed": 10}); code != 200 {
		t.Fatalf("second refit: status %d (%s)", code, body)
	}
	var rep2 discoverGetReply
	getJSON(t, srv.URL+"/api/discover", &rep2)
	if rep2.Generation != 2 || rep2.K != 6 {
		t.Errorf("after second refit: generation %d k %d, want 2/6", rep2.Generation, rep2.K)
	}
}

// TestDiscoverAssignErrors pins the 4xx contract and its outcome
// counters: malformed bodies, empty and unknown features and oversized
// payloads all answer 4xx -- never a panic, never a 500. Invalid refit
// parameters are TestChaosDiscoverRefitRefusals.
func TestDiscoverAssignErrors(t *testing.T) {
	srv, reg := discoverServer(t)
	if code, body := postJSON(t, srv.URL+"/api/discover", map[string]any{"k": 3}); code != 200 {
		t.Fatalf("refit: status %d (%s)", code, body)
	}

	post := func(raw string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/discover/assign", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	if code, body := post(`{not json`); code != 400 {
		t.Errorf("malformed body: status %d (%s)", code, body)
	}
	if code, body := post(`{}`); code != 400 {
		t.Errorf("empty features: status %d (%s)", code, body)
	}
	if code, body := post(`{"features":{"no_such_feature":1}}`); code != 400 {
		t.Errorf("unknown feature: status %d (%s)", code, body)
	}
	if got := reg.Counter("discover_assign_outcomes_total", "outcome", "bad_request").Value(); got != 3 {
		t.Errorf("bad_request outcomes = %d, want 3", got)
	}
	huge := `{"features":{"` + strings.Repeat("a", maxClassifyBody+64) + `":1}}`
	if code, body := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (%s)", code, body)
	}
	if got := reg.Counter("discover_assign_outcomes_total", "outcome", "oversized").Value(); got != 1 {
		t.Errorf("oversized outcomes = %d, want 1", got)
	}
}

// TestDiscoverAssignOutOfRange: a finite, JSON-legal feature value far
// enough out overflows the standardized row, so the projection or the
// distance Assign reports is ±Inf or NaN. That used to commit a 200 and
// then fail to encode: an empty body. Assign now answers 400 naming the
// feature, counted as a bad request, with no encode error.
func TestDiscoverAssignOutOfRange(t *testing.T) {
	srv, reg := discoverServer(t)
	if code, body := postJSON(t, srv.URL+"/api/discover", map[string]any{"k": 3}); code != 200 {
		t.Fatalf("refit: status %d (%s)", code, body)
	}
	var fit discoverGetReply
	if code := getJSON(t, srv.URL+"/api/discover", &fit); code != 200 {
		t.Fatalf("discover: status %d", code)
	}
	name := fit.Features[0]
	for _, x := range []float64{1e160, 1e308, -1e308} {
		code, body := postJSON(t, srv.URL+"/api/discover/assign", map[string]any{"features": map[string]float64{name: x}})
		var reply struct{ Error string }
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatalf("%s = %g: status %d with a body that is not JSON (%q): %v", name, x, code, body, err)
		}
		if want := "features out of range: [" + name + "]"; code != http.StatusBadRequest || reply.Error != want {
			t.Errorf("%s = %g: status %d %q, want 400 %q", name, x, code, reply.Error, want)
		}
	}
	if got := reg.Counter("discover_assign_outcomes_total", "outcome", "bad_request").Value(); got != 3 {
		t.Errorf("bad_request outcomes = %d, want 3", got)
	}
	if got := reg.Counter("http_encode_errors_total").Value(); got != 0 {
		t.Errorf("http_encode_errors_total = %d, want 0", got)
	}
}

// TestDiscoverRefitWorkerParity is the serving-layer restart-parity
// gate: the same refit request against servers fitting with 1 and 4
// workers produces byte-identical /api/discover reports and byte-
// identical assignments.
func TestDiscoverRefitWorkerParity(t *testing.T) {
	var reports, assigns [][]byte
	for _, workers := range []int{1, 4} {
		srv, _ := discoverServer(t, WithBatchWorkers(workers))
		if code, body := postJSON(t, srv.URL+"/api/discover",
			map[string]any{"k": 5, "restarts": 4, "seed": 17}); code != 200 {
			t.Fatalf("refit (workers=%d): status %d (%s)", workers, code, body)
		}
		resp, report := get(t, srv.URL+"/api/discover")
		if resp.StatusCode != 200 {
			t.Fatalf("GET /api/discover (workers=%d): status %d", workers, resp.StatusCode)
		}
		var rep discoverGetReply
		if err := json.Unmarshal([]byte(report), &rep); err != nil {
			t.Fatal(err)
		}
		_, assign := postJSON(t, srv.URL+"/api/discover/assign",
			map[string]any{"features": fullRow(rep.Features, 2)})
		reports = append(reports, []byte(report))
		assigns = append(assigns, assign)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("discovery reports diverge between worker counts 1 and 4")
	}
	if !bytes.Equal(assigns[0], assigns[1]) {
		t.Errorf("assignments diverge between worker counts:\n%s\n%s", assigns[0], assigns[1])
	}
}

// TestChaosDiscoverGovernance proves the discovery endpoints ride the
// same governance as classify: injected row latency past the request
// deadline answers 504 (handler stage), a burst over capacity sheds 429
// with Retry-After, and the flight recorder files wide events under the
// discovery routes.
func TestChaosDiscoverGovernance(t *testing.T) {
	rec := flight.NewRecorder(flight.DefaultConfig())
	faults := resilience.NewFaults(12)
	if err := faults.Set(FaultDiscoverAssign, resilience.FaultSpec{
		Kind: resilience.FaultLatency, Rate: 1, Latency: 300 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	srv, reg := discoverServer(t,
		WithFaults(faults),
		WithFlightRecorder(rec),
		WithResilience(ResilienceConfig{
			RequestTimeout: 100 * time.Millisecond,
			MaxConcurrent:  1,
			MaxQueue:       0,
		}),
	)
	// The refit is control-plane (breaker-guarded, ungoverned) so it is
	// untouched by the admission limiter or the row-latency faults.
	if code, body := postJSON(t, srv.URL+"/api/discover", map[string]any{"k": 3}); code != 200 {
		t.Fatalf("refit under governance: status %d (%s)", code, body)
	}
	var rep discoverGetReply
	if code := getJSON(t, srv.URL+"/api/discover", &rep); code != 200 {
		t.Fatalf("GET /api/discover: status %d", code)
	}
	assignBody := map[string]any{"features": fullRow(rep.Features, 4)}

	// 504: the 300ms row fault blows the 100ms deadline.
	if code, body := postJSON(t, srv.URL+"/api/discover/assign", assignBody); code != http.StatusGatewayTimeout {
		t.Fatalf("assign under latency fault: status %d, want 504 (%s)", code, body)
	}
	if got := reg.Counter("http_timeouts_total", "stage", "handler").Value(); got != 1 {
		t.Errorf("http_timeouts_total{handler} = %d, want 1", got)
	}
	if got := reg.Counter("discover_assign_outcomes_total", "outcome", "timeout").Value(); got != 1 {
		t.Errorf("discover timeout outcomes = %d, want 1", got)
	}

	// 429: occupy the single slot, then a second arrival finds no queue.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, srv.URL+"/api/discover/assign", assignBody)
	}()
	time.Sleep(50 * time.Millisecond)
	body, _ := json.Marshal(assignBody)
	resp, err := http.Post(srv.URL+"/api/discover/assign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wg.Wait()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("arrival at capacity 1/queue 0: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want 1", got)
	}
	if got := reg.Counter("http_shed_total", "reason", "queue_full").Value(); got == 0 {
		t.Error("http_shed_total{queue_full} = 0 after a shed 429")
	}

	// Every disposition above filed a wide event under its route.
	deadline := time.Now().Add(10 * time.Second)
	for {
		byRoute := rec.Stats().ByRoute
		n := 0
		for _, route := range []string{"/api/discover", "/api/discover/assign"} {
			for _, c := range byRoute[route] {
				n += int(c)
			}
		}
		if n >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight recorder observed %d events on the discovery routes, want >= 5 (%v)", n, byRoute)
		}
		time.Sleep(10 * time.Millisecond)
	}
	events, _ := debugEvents(t, srv.URL, "route=/api/discover/assign&limit=-1")
	if len(events) == 0 {
		t.Error("no wide events filed under /api/discover/assign")
	}
}

// TestChaosDiscoverRefitBreaker drives the shared control-plane breaker
// with discovery refits: injected refit failures trip it, further refits
// AND model reloads then fail fast with 503 + Retry-After, and the
// serving discovery fit is never disturbed.
func TestChaosDiscoverRefitBreaker(t *testing.T) {
	faults := resilience.NewFaults(13)
	if err := faults.Set(FaultDiscoverFit, resilience.FaultSpec{
		Kind: resilience.FaultError, Rate: 1,
	}); err != nil {
		t.Fatal(err)
	}
	srv, reg := discoverServer(t,
		WithFaults(faults),
		WithReloadBreaker(resilience.BreakerConfig{FailureThreshold: 3, OpenFor: time.Minute}),
	)

	// Each injected refit failure answers 400 and feeds the breaker.
	for i := 0; i < 3; i++ {
		if code, body := postJSON(t, srv.URL+"/api/discover", map[string]any{"k": 3}); code != 400 {
			t.Fatalf("faulted refit %d: status %d (%s)", i, code, body)
		}
	}
	if got := reg.Gauge("model_breaker_state").Value(); got != 2 {
		t.Fatalf("breaker state %v after threshold failures, want 2 (open)", got)
	}

	// Open: refits fail fast with 503 + Retry-After...
	resp, err := http.Post(srv.URL+"/api/discover", "application/json", strings.NewReader(`{"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("refit while open: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 from open breaker is missing Retry-After")
	}
	// ...and so do model reloads: refit and reload share one breaker.
	resp, err = http.Post(srv.URL+"/admin/model/reload", "application/json", strings.NewReader(`{"path":"/nonexistent"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("reload while refit-tripped breaker open: status %d, want 503", resp.StatusCode)
	}
	if got := reg.Counter("model_breaker_rejections_total").Value(); got != 2 {
		t.Errorf("breaker rejections = %d, want 2", got)
	}
	// The discovery manager never saw a swap attempt.
	if got := reg.Gauge("discover_generation").Value(); got != 0 {
		t.Errorf("discover_generation = %v after failed refits, want 0", got)
	}
}

// TestChaosDiscoverRefitRefusals: a refit the request itself rules out
// -- a negative knob, k above the unlabeled population, restarts above
// core.MaxDiscoveryRestarts -- is a client error answered before the
// control-plane guard and must not consume a breaker failure. More of
// them than the default breaker threshold leave the breaker closed and
// /readyz free of it, and the next valid refit is 200.
func TestChaosDiscoverRefitRefusals(t *testing.T) {
	srv, reg := discoverServer(t)
	refit := func(req map[string]any) (int, string) {
		t.Helper()
		code, body := postJSON(t, srv.URL+"/api/discover", req)
		return code, string(body)
	}

	if code, body := refit(map[string]any{"k": -1}); code != 400 {
		t.Errorf("negative k refit: status %d (%s)", code, body)
	}
	over := map[string]any{"k": 4, "restarts": core.MaxDiscoveryRestarts + 1}
	if code, body := refit(over); code != 400 || !strings.Contains(body, fmt.Sprintf("cap of %d", core.MaxDiscoveryRestarts)) {
		t.Errorf("restarts over the cap: status %d (%s), want 400 naming the cap", code, body)
	}
	for i := 0; i < 5; i++ {
		if code, body := refit(map[string]any{"k": 100000}); code != 400 || !strings.Contains(body, "exceeds 91 rows") {
			t.Fatalf("over-population refit %d: status %d (%s), want 400 naming the 91 rows", i, code, body)
		}
	}

	if got := reg.Gauge("model_breaker_state").Value(); got != 0 {
		t.Errorf("breaker state %v after refused refits, want 0 (closed)", got)
	}
	if _, body := get(t, srv.URL+"/readyz"); strings.Contains(body, "breaker") {
		t.Errorf("/readyz lists the breaker after refused refits: %s", body)
	}
	if code, body := refit(map[string]any{"k": 4, "restarts": core.MaxDiscoveryRestarts}); code != 200 {
		t.Errorf("valid refit after refusals, restarts at the cap: status %d (%s), want 200", code, body)
	}
	if got := reg.Counter("model_breaker_rejections_total").Value(); got != 0 {
		t.Errorf("breaker rejections = %d, want 0", got)
	}
}

// TestDiscoverRefitCapsRows fills a warehouse with discoveryRows+100
// unlabeled jobs, the pipeline's Uncategorized/NA jobs copied under
// fresh ids, and requires the refit to fit exactly the newest
// discoveryRows of them: the served fit equals one over those rows.
func TestDiscoverRefitCapsRows(t *testing.T) {
	var unlabeled warehouse.Records
	for _, r := range pipeline(t, 91, 200).Records {
		if r.Unlabeled() {
			unlabeled = append(unlabeled, r)
		}
	}
	sink := warehouse.NewSharded(warehouse.ShardedConfig{})
	for i := 0; i < discoveryRows+100; i++ {
		c := *unlabeled[i%len(unlabeled)]
		c.JobID = fmt.Sprintf("%07d", 3000000+i)
		if err := sink.Ingest(&c); err != nil {
			t.Fatal(err)
		}
	}
	s := New(sink, nil, 6400)
	srv := httptest.NewServer(s)
	defer srv.Close()
	code, body := postJSON(t, srv.URL+"/api/discover", map[string]any{"k": 3, "restarts": 1, "seed": 5})
	if code != 200 {
		t.Fatalf("refit: status %d (%s)", code, body)
	}
	var reply struct{ Rows int }
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Rows != discoveryRows {
		t.Fatalf("refit answered rows %d, want the cap %d", reply.Rows, discoveryRows)
	}
	newest := sink.Records()[100:]
	if newest[0].JobID != "3000100" {
		t.Fatalf("the newest window starts at job %s", newest[0].JobID)
	}
	opt := core.DefaultFeatures()
	want, err := core.FitDiscovery(core.FeaturizeAll(newest, opt), core.FeatureNames(opt),
		core.DiscoveryConfig{K: 3, Restarts: 1, Seed: 5, Workers: s.batchWorkers})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.discovery.View().Model; !reflect.DeepEqual(got, want) {
		t.Fatalf("served fit (rows %d, inertia %v) is not the fit over the newest %d jobs (rows %d, inertia %v)",
			got.Rows, got.Inertia, discoveryRows, want.Rows, want.Inertia)
	}
}
