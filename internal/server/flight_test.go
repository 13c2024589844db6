package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/resilience"
)

func flightGet(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body := readAll(t, resp)
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp
}

func TestHealthzAlwaysOK(t *testing.T) {
	a := chaosFixture(t)
	c := newChaosServer(t, a)
	var body map[string]string
	if resp := flightGet(t, c.srv.URL+"/healthz", &body); resp.StatusCode != 200 {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	if body["status"] != "ok" {
		t.Errorf("healthz body: %v", body)
	}

	// Liveness must hold even before any model is published: a process
	// that is up but not ready is alive, not dead.
	bare := httptest.NewServer(New(a.store, nil, 6400))
	defer bare.Close()
	if resp := flightGet(t, bare.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Errorf("healthz without a model: status %d, want 200", resp.StatusCode)
	}
}

func TestReadyzTracksModelAndBreaker(t *testing.T) {
	a := chaosFixture(t)

	// No model published: not ready, and the reason says so.
	bare := httptest.NewServer(New(a.store, nil, 6400))
	defer bare.Close()
	var body struct {
		Status     string   `json:"status"`
		Reasons    []string `json:"reasons"`
		Generation uint64   `json:"generation"`
	}
	if resp := flightGet(t, bare.URL+"/readyz", &body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz without a model: status %d, want 503", resp.StatusCode)
	}
	if len(body.Reasons) != 1 || body.Reasons[0] != "no model loaded" {
		t.Errorf("readyz reasons: %v", body.Reasons)
	}

	// Model loaded, breaker closed: ready, reporting the generation.
	c := newChaosServer(t, a, WithReloadBreaker(resilience.BreakerConfig{
		FailureThreshold: 1,
		OpenFor:          time.Minute,
	}))
	if resp := flightGet(t, c.srv.URL+"/readyz", &body); resp.StatusCode != 200 {
		t.Fatalf("readyz with model: status %d", resp.StatusCode)
	}
	if body.Status != "ok" || body.Generation != 1 {
		t.Errorf("readyz body: %+v", body)
	}

	// One failed reload trips the threshold-1 breaker; the instance keeps
	// serving its last good model but must advertise not-ready so a
	// balancer can drain it.
	resp := c.post(t, "/admin/model/reload", []byte(`{"path":"/nonexistent/model.bin"}`))
	readAll(t, resp)
	if resp.StatusCode != 400 {
		t.Fatalf("failing reload: status %d, want 400", resp.StatusCode)
	}
	if resp := flightGet(t, c.srv.URL+"/readyz", &body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open breaker: status %d, want 503", resp.StatusCode)
	}
	found := false
	for _, r := range body.Reasons {
		if r == "model reload breaker open" {
			found = true
		}
	}
	if !found {
		t.Errorf("readyz reasons %v missing the open breaker", body.Reasons)
	}
	// And classify still works: not-ready is a draining signal, not an
	// outage.
	cr := c.post(t, "/api/classify", a.singleBody(0))
	readAll(t, cr)
	if cr.StatusCode != 200 {
		t.Errorf("classify while not-ready: status %d, want 200", cr.StatusCode)
	}
}

// debugEvents queries /debug/requests and returns the decoded events.
func debugEvents(t *testing.T, base, query string) ([]flight.Event, int) {
	t.Helper()
	var out struct {
		Matched int            `json:"matched"`
		Events  []flight.Event `json:"events"`
	}
	if resp := flightGet(t, base+"/debug/requests?"+query, &out); resp.StatusCode != 200 {
		t.Fatalf("/debug/requests?%s: status %d", query, resp.StatusCode)
	}
	return out.Events, out.Matched
}

// waitForClassifyObserved polls the recorder until its classify-route
// observed count reaches want: the wide event is filed after the
// response is written, so a client can observe the response before the
// recorder observes the event.
func waitForClassifyObserved(t *testing.T, rec *flight.Recorder, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got uint64
		for route, byStatus := range rec.Stats().ByRoute {
			if strings.HasPrefix(route, "/api/classify") {
				for _, n := range byStatus {
					got += n
				}
			}
		}
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("recorder observed %d classify events, want %d", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRequestIDEchoedOnEveryDisposition is the X-Request-Id regression:
// the response header must echo the caller-supplied ID on success, shed
// (429) and timeout (504) alike, and the flight recorder must file the
// wide event under that same ID.
func TestRequestIDEchoedOnEveryDisposition(t *testing.T) {
	a := chaosFixture(t)
	faults := resilience.NewFaults(5)
	if err := faults.Set(FaultClassifyRow, resilience.FaultSpec{
		Kind: resilience.FaultLatency, Rate: 1, Latency: 300 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	rec := flight.NewRecorder(flight.DefaultConfig())
	c := newChaosServer(t, a,
		WithFaults(faults),
		WithFlightRecorder(rec),
		WithResilience(ResilienceConfig{
			RequestTimeout: 100 * time.Millisecond,
			MaxConcurrent:  1,
			MaxQueue:       0,
		}),
	)

	postWithID := func(id string) *http.Response {
		req, err := http.NewRequest("POST", c.srv.URL+"/api/classify", bytes.NewReader(a.singleBody(0)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST with id %s: %v", id, err)
		}
		readAll(t, resp)
		return resp
	}

	// Timeout: the 300ms row fault blows the 100ms deadline -> 504.
	resp := postWithID("flight-test-timeout")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("latency fault under 100ms deadline: status %d, want 504", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "flight-test-timeout" {
		t.Errorf("504 response X-Request-ID = %q, want the caller's", got)
	}

	// Shed: occupy the single slot with a slow request, then a second
	// arrival finds no slot and no queue -> 429.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postWithID("flight-test-occupier")
	}()
	time.Sleep(50 * time.Millisecond) // let the occupier take the slot
	resp = postWithID("flight-test-shed")
	wg.Wait()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second arrival at capacity 1/queue 0: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "flight-test-shed" {
		t.Errorf("429 response X-Request-ID = %q, want the caller's", got)
	}

	// Success: disarm the fault (rate 0 never fires) so the request
	// beats the deadline.
	if err := faults.Set(FaultClassifyRow, resilience.FaultSpec{
		Kind: resilience.FaultLatency, Rate: 0, Latency: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	resp = postWithID("flight-test-ok")
	if resp.StatusCode != 200 {
		t.Fatalf("classify after clearing the fault: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "flight-test-ok" {
		t.Errorf("200 response X-Request-ID = %q, want the caller's", got)
	}

	// A request without an inbound ID gets a minted, non-empty one.
	plain := c.post(t, "/api/classify", a.singleBody(0))
	readAll(t, plain)
	if plain.Header.Get("X-Request-ID") == "" {
		t.Error("no minted X-Request-ID on a bare request")
	}

	// Every disposition's wide event is filed under the caller's ID with
	// the matching outcome and annotations.
	waitForClassifyObserved(t, rec, 5)
	wantOutcome := map[string]string{
		"flight-test-timeout": flight.OutcomeTimeout,
		"flight-test-shed":    flight.OutcomeShed,
		"flight-test-ok":      flight.OutcomeOK,
	}
	events, _ := debugEvents(t, c.srv.URL, "route=/api/classify&limit=-1")
	seen := map[string]flight.Event{}
	for _, ev := range events {
		seen[ev.ID] = ev
	}
	for id, outcome := range wantOutcome {
		ev, ok := seen[id]
		if !ok {
			t.Errorf("no wide event filed under %q", id)
			continue
		}
		if ev.Outcome != outcome {
			t.Errorf("event %q outcome %q, want %q", id, ev.Outcome, outcome)
		}
	}
	if ev, ok := seen["flight-test-timeout"]; ok {
		if ev.TimeoutStage != "handler" {
			t.Errorf("timeout event stage %q, want handler", ev.TimeoutStage)
		}
		if ev.FaultHits == 0 {
			t.Error("timeout event did not record the fault-site hit")
		}
		if ev.ModelGeneration != 1 {
			t.Errorf("timeout event model generation %d, want 1", ev.ModelGeneration)
		}
	}
	if ev, ok := seen["flight-test-ok"]; ok {
		if ev.Rows != 1 || ev.RowNS <= 0 {
			t.Errorf("ok event rows=%d rowNS=%d, want 1 row with timing", ev.Rows, ev.RowNS)
		}
	}
}

// TestStageTimersReconcile: every stage of a served request is stamped
// and together they account for no more than the handler's time. A
// single row's score stage is exactly its RowNS; a batch's score stage
// is the fan-out's wall time, so the row time summed over its workers
// fits in workers x that wall time.
func TestStageTimersReconcile(t *testing.T) {
	a := chaosFixture(t)
	rec := flight.NewRecorder(flight.DefaultConfig())
	const workers = 2
	c := newChaosServer(t, a, WithFlightRecorder(rec), WithBatchWorkers(workers))
	cases := []struct {
		id, path string
		body     []byte
		rows     int64
	}{
		{"stages-single", "/api/classify", a.singleBody(0), 1},
		{"stages-batch", "/api/classify/batch", a.batchBody(0, 9), 9},
	}
	for _, tc := range cases {
		req, err := http.NewRequest("POST", c.srv.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", tc.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, body)
		}
	}
	waitForClassifyObserved(t, rec, uint64(len(cases)))
	for _, tc := range cases {
		events, matched := debugEvents(t, c.srv.URL, "id="+tc.id)
		if matched != 1 || len(events) != 1 {
			t.Fatalf("id=%s matched %d events, want 1", tc.id, matched)
		}
		ev := events[0]
		for stage, ns := range ev.Stages {
			if ns <= 0 {
				t.Errorf("%s: stage %d is %d ns, want it stamped", tc.id, stage, ns)
			}
		}
		if sum := ev.Stages.Sum(); sum > ev.HandlerNS {
			t.Errorf("%s: stages sum to %d ns, more than the handler's %d", tc.id, sum, ev.HandlerNS)
		}
		if ev.Rows != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.id, ev.Rows, tc.rows)
		}
		score := ev.Stages[flight.StageScore]
		if tc.rows == 1 && score != ev.RowNS {
			t.Errorf("%s: score stage %d ns, RowNS %d: one row's score stage is its row time", tc.id, score, ev.RowNS)
		}
		if ev.RowNS > workers*score {
			t.Errorf("%s: RowNS %d exceeds %d workers x the %d ns fan-out", tc.id, ev.RowNS, workers, score)
		}
	}
}

// TestFlightStormReconciliation is the in-process storm gate: a burst of
// concurrent classify traffic against a tiny admission envelope, then a
// three-way exact join of (client-observed statuses) x (recorder ByRoute
// ledger) x (http_requests_total counters) -- and every error-class
// response the clients saw must be individually retrievable from
// /debug/requests by its request ID.
func TestFlightStormReconciliation(t *testing.T) {
	a := chaosFixture(t)
	faults := resilience.NewFaults(17)
	if err := faults.Set(FaultClassifyRow, resilience.FaultSpec{
		Kind: resilience.FaultLatency, Rate: 1, Latency: 5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	// Ring big enough that nothing evicts: the retrievability check below
	// demands every error event, not a sample.
	rec := flight.NewRecorder(flight.Config{Capacity: 4096})
	c := newChaosServer(t, a,
		WithBatchWorkers(2),
		WithFaults(faults),
		WithFlightRecorder(rec),
		WithResilience(ResilienceConfig{
			RequestTimeout: 60 * time.Millisecond,
			MaxConcurrent:  2,
			MaxQueue:       2,
		}),
	)

	const clients, perClient = 8, 12
	type outcome struct {
		id     string
		status int
	}
	results := make(chan outcome, clients*perClient)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := fmt.Sprintf("storm-%d-%d", cl, i)
				path, body := "/api/classify", a.singleBody(i)
				if i%4 == 0 {
					path, body = "/api/classify/batch", a.batchBody(i, 4)
				}
				req, err := http.NewRequest("POST", c.srv.URL+path, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Request-ID", id)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("storm request %s: %v", id, err)
					return
				}
				readAll(t, resp)
				results <- outcome{id, resp.StatusCode}
			}
		}()
	}
	wg.Wait()
	close(results)

	clientByStatus := map[int]uint64{}
	var errorIDs []string
	for res := range results {
		clientByStatus[res.status]++
		if res.status >= 400 {
			errorIDs = append(errorIDs, res.id)
		}
	}
	var total uint64
	for _, n := range clientByStatus {
		total += n
	}
	if total != clients*perClient {
		t.Fatalf("clients recorded %d outcomes of %d requests", total, clients*perClient)
	}
	waitForClassifyObserved(t, rec, total)

	// Exact join per route and status: recorder ledger vs the metrics
	// counters (same process, same traffic, zero tolerance), and the
	// recorder's classify totals vs the clients' own tally.
	st := rec.Stats()
	var recObserved uint64
	for _, route := range []string{"/api/classify", "/api/classify/batch"} {
		for status, n := range st.ByRoute[route] {
			recObserved += n
			counter := c.reg.Counter("http_requests_total", "path", route, "code", status).Value()
			if counter != n {
				t.Errorf("route %s status %s: recorder observed %d, http_requests_total %d",
					route, status, n, counter)
			}
		}
	}
	if recObserved != total {
		t.Errorf("recorder observed %d classify events, clients saw %d responses", recObserved, total)
	}
	for status, n := range clientByStatus {
		var rec uint64
		code := strconv.Itoa(status)
		for _, route := range []string{"/api/classify", "/api/classify/batch"} {
			rec += st.ByRoute[route][code]
		}
		if rec != n {
			t.Errorf("status %d: clients saw %d, recorder observed %d", status, n, rec)
		}
	}
	if err := st.Check(); err != nil {
		t.Error(err)
	}
	if st.Evicted != 0 {
		t.Fatalf("storm evicted %d events from a 4096 ring; retrievability check would be vacuous", st.Evicted)
	}

	// Every 429/504/5xx the clients saw must come back out of the ring.
	events, _ := debugEvents(t, c.srv.URL, "route=/api/classify&limit=-1")
	inRing := map[string]bool{}
	for _, ev := range events {
		if ev.Status >= 400 {
			inRing[ev.ID] = true
		}
	}
	missing := 0
	for _, id := range errorIDs {
		if !inRing[id] {
			missing++
			if missing <= 5 {
				t.Errorf("error response %s not retrievable from /debug/requests", id)
			}
		}
	}
	if missing > 5 {
		t.Errorf("... and %d more missing error events", missing-5)
	}
	t.Logf("storm: %d requests, statuses %v, %d error events all retrievable", total, clientByStatus, len(errorIDs))
}

// TestRuntimeMetricsExposed: the scrape-time families reach /metrics, and
// every go_*, flight_* and slo_* family carries the HELP text of the
// package that writes it.
func TestRuntimeMetricsExposed(t *testing.T) {
	a := chaosFixture(t)
	cfg := flight.DefaultConfig()
	cfg.Bundle.Dir = t.TempDir()
	c := newChaosServer(t, a, WithFlightRecorder(flight.NewRecorder(cfg)))
	resp, err := http.Get(c.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	serve := string(readAll(t, resp))
	for _, family := range []string{
		"go_goroutines", "go_heap_bytes", "go_gc_pause_seconds", "go_sched_latency_seconds",
		"flight_events{disposition=", "flight_bundles{outcome=", "slo_burn_rate{objective=",
	} {
		if !strings.Contains(serve, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	helped, scraped := map[string]bool{}, 0
	for _, line := range strings.Split(serve, "\n") {
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(name, " ")
			helped[name] = true
		}
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, " ")
		if !strings.HasPrefix(name, "go_") && !strings.HasPrefix(name, "flight_") && !strings.HasPrefix(name, "slo_") {
			continue
		}
		scraped++
		if !helped[name] {
			t.Errorf("/metrics exposes %s without a # HELP line", name)
		}
	}
	if scraped < 8 {
		t.Errorf("only %d go_/flight_/slo_ families scraped", scraped)
	}
}

func TestDebugSLOEndpoint(t *testing.T) {
	a := chaosFixture(t)
	c := newChaosServer(t, a, WithFlightRecorder(flight.NewRecorder(flight.DefaultConfig())))
	// Put one governed request through so the run totals are non-zero.
	resp := c.post(t, "/api/classify", a.singleBody(0))
	readAll(t, resp)

	var st flight.SLOStatus
	if resp := flightGet(t, c.srv.URL+"/debug/slo", &st); resp.StatusCode != 200 {
		t.Fatalf("/debug/slo: status %d", resp.StatusCode)
	}
	if st.Availability == nil || st.Latency == nil {
		t.Fatalf("/debug/slo missing objectives: %+v", st)
	}
	if st.Availability.Target != 0.999 {
		t.Errorf("availability target %v, want default 0.999", st.Availability.Target)
	}
	if len(st.Availability.Windows) == 0 {
		t.Error("availability objective has no burn windows")
	}

	// Unarmed server: the debug surface is not mounted at all.
	bare := newChaosServer(t, a)
	if resp := flightGet(t, bare.srv.URL+"/debug/slo", nil); resp.StatusCode != 404 {
		t.Errorf("/debug/slo without a recorder: status %d, want 404", resp.StatusCode)
	}
}

func TestDebugBundleEndpoint(t *testing.T) {
	a := chaosFixture(t)

	// Bundles not configured: the endpoint answers 503, not 500.
	c := newChaosServer(t, a, WithFlightRecorder(flight.NewRecorder(flight.DefaultConfig())))
	if resp := flightGet(t, c.srv.URL+"/debug/bundle", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/debug/bundle without -bundle-dir: status %d, want 503", resp.StatusCode)
	}

	// Production wiring (cmd/supremm-serve) hands the server's metrics
	// registry to the bundler so captures carry metrics.prom; mirror it.
	dir := t.TempDir()
	reg := obs.NewRegistry()
	models := core.NewModelManager(reg)
	if _, err := models.ReloadFromFile(a.pathA); err != nil {
		t.Fatal(err)
	}
	cfg := flight.DefaultConfig()
	cfg.Bundle = flight.BundleConfig{Dir: dir, Registry: reg}
	armed := httptest.NewServer(New(a.store, nil, 6400,
		WithMetrics(reg), WithModelManager(models),
		WithFlightRecorder(flight.NewRecorder(cfg))))
	defer armed.Close()
	resp, err := http.Post(armed.URL+"/api/classify", "application/json", bytes.NewReader(a.singleBody(0)))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)

	var b flight.Bundle
	if resp := flightGet(t, armed.URL+"/debug/bundle?reason=smoke", &b); resp.StatusCode != 200 {
		t.Fatalf("/debug/bundle: status %d", resp.StatusCode)
	}
	if !strings.Contains(filepath.Base(b.Dir), "smoke") {
		t.Errorf("bundle dir %q does not carry the reason", b.Dir)
	}
	for _, name := range []string{"events.json", "slo.json", "metrics.prom", "heap.pprof"} {
		if _, err := os.Stat(filepath.Join(b.Dir, name)); err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
		}
	}
	// The operator path bypasses the automatic rate limit: asking twice
	// yields two bundles.
	if resp := flightGet(t, armed.URL+"/debug/bundle", nil); resp.StatusCode != 200 {
		t.Errorf("second forced bundle: status %d, want 200 (rate limit is for automatic captures)", resp.StatusCode)
	}
}
