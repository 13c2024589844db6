package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/warehouse"
)

// chaosAssets is the shared raw material for the chaos suite: one
// generated workload plus two schema-compatible models saved to disk.
// Building the pipeline is the expensive part, so every chaos test
// shares one copy (the assets are read-only after construction).
type chaosAssets struct {
	store    *warehouse.Store
	pathA    string
	pathB    string
	features []string
}

func chaosFixture(t testing.TB) *chaosAssets {
	t.Helper()
	res, ds := pipeline(t, 91, 200), categoryData(t, 91, 200)
	modelA, modelB := smallForest(t, 3, 40), smallForest(t, 7, 50)
	return shared(t, "chaos assets", func() (*chaosAssets, error) {
		// Not t.TempDir: the assets outlive the first test that builds
		// them. The process-scoped temp dir is cleaned with the test run.
		dir, err := os.MkdirTemp("", "chaos-models-")
		if err != nil {
			return nil, err
		}
		a := &chaosAssets{
			store:    res.Store,
			pathA:    filepath.Join(dir, "a.bin"),
			pathB:    filepath.Join(dir, "b.bin"),
			features: ds.FeatureNames,
		}
		for path, m := range map[string]*core.JobClassifier{a.pathA: modelA, a.pathB: modelB} {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			if err := m.Save(f); err != nil {
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		return a, nil
	})
}

// chaosServer boots a server over the shared assets with model A loaded
// (generation 1) and whatever resilience options the test needs.
type chaosServer struct {
	srv    *httptest.Server
	reg    *obs.Registry
	models *core.ModelManager
}

func newChaosServer(t *testing.T, a *chaosAssets, opts ...Option) *chaosServer {
	t.Helper()
	reg := obs.NewRegistry()
	models := core.NewModelManager(reg)
	if _, err := models.ReloadFromFile(a.pathA); err != nil {
		t.Fatal(err)
	}
	all := append([]Option{WithMetrics(reg), WithModelManager(models)}, opts...)
	srv := httptest.NewServer(New(a.store, nil, 6400, all...))
	t.Cleanup(srv.Close)
	return &chaosServer{srv: srv, reg: reg, models: models}
}

// singleBody renders a deterministic full-coverage single-classify body;
// variant perturbs the values so different requests exercise different
// rows.
func (a *chaosAssets) singleBody(variant int) []byte {
	features := make(map[string]float64, len(a.features))
	for j, name := range a.features {
		features[name] = float64((variant*5+j)%7) / 6
	}
	body, _ := json.Marshal(map[string]any{"features": features, "threshold": 0.1})
	return body
}

// batchBody renders a deterministic batch-classify body of rows rows.
func (a *chaosAssets) batchBody(variant, rows int) []byte {
	rs := make([]map[string]float64, rows)
	for i := range rs {
		m := make(map[string]float64, len(a.features))
		for j, name := range a.features {
			m[name] = float64((variant*11+i*5+j)%9) / 8
		}
		rs[i] = m
	}
	body, _ := json.Marshal(map[string]any{"rows": rs, "threshold": 0.1})
	return body
}

func (c *chaosServer) post(t *testing.T, path string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(c.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosReloadFaultsNeverServeTorn is the tentpole chaos gate for the
// reload path: with error faults injected into half of all reload
// attempts and live classify traffic in flight, every successful
// response must be byte-identical to what model A or model B produces --
// a failed reload must never leave a torn or partially-swapped model
// serving.
func TestChaosReloadFaultsNeverServeTorn(t *testing.T) {
	a := chaosFixture(t)
	faults := resilience.NewFaults(99)
	if err := faults.Set(FaultReload, resilience.FaultSpec{Kind: resilience.FaultError, Rate: 0.5}); err != nil {
		t.Fatal(err)
	}
	c := newChaosServer(t, a,
		WithBatchWorkers(2),
		WithFaults(faults),
		// The breaker must not interfere here; it has its own test.
		WithReloadBreaker(resilience.BreakerConfig{FailureThreshold: 1 << 20}),
	)
	body := a.singleBody(0)

	classify := func() []byte {
		resp := c.post(t, "/api/classify", body)
		got := readAll(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("classify status %d: %s", resp.StatusCode, got)
		}
		return got
	}
	reload := func(path string) int {
		resp := c.post(t, "/admin/model/reload", []byte(`{"path":"`+path+`"}`))
		readAll(t, resp)
		return resp.StatusCode
	}

	// Reference responses for both models, captured quiesced. Priming the
	// swap to B may take a few attempts through the fault dice.
	wantA := classify()
	okReloads := 0
	for reload(a.pathB) != 200 {
		if okReloads++; okReloads > 64 {
			t.Fatal("rate-0.5 fault dice blocked 64 straight reloads; registry broken")
		}
	}
	wantB := classify()
	if bytes.Equal(wantA, wantB) {
		t.Fatal("fixture models classify identically; the torn-model check would be vacuous")
	}

	const clients = 4
	const perClient = 30
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(c.srv.URL+"/api/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- "status " + resp.Status
					return
				}
				if got := buf.Bytes(); !bytes.Equal(got, wantA) && !bytes.Equal(got, wantB) {
					errs <- "torn response: " + buf.String()
					return
				}
			}
		}()
	}

	// Hammer reloads while the clients classify. Injected failures answer
	// 400 and must leave the serving model untouched; successes swap it.
	succeeded, failed := 0, 0
	paths := [2]string{a.pathA, a.pathB}
	genBefore := c.models.Generation()
	for i := 0; i < 40; i++ {
		switch status := reload(paths[i%2]); status {
		case 200:
			succeeded++
		case 400:
			failed++
		default:
			t.Errorf("reload %d: unexpected status %d", i, status)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if succeeded == 0 || failed == 0 {
		t.Fatalf("fault dice gave %d successes / %d failures; wanted both", succeeded, failed)
	}
	if got := c.models.Generation(); got != genBefore+uint64(succeeded) {
		t.Errorf("generation %d after %d successful reloads from %d; failed reloads moved the model",
			got, succeeded, genBefore)
	}
	// And the survivor still serves one of the two known models.
	if got := classify(); !bytes.Equal(got, wantA) && !bytes.Equal(got, wantB) {
		t.Errorf("post-chaos response matches neither model: %s", got)
	}
}

// TestChaosBreakerOpensAndRecovers drives the reload breaker through its
// full cycle at the HTTP layer: consecutive real failures open it,
// reloads then fail fast with 503 + Retry-After without touching the
// manager, and after the open window a half-open probe restores service.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	a := chaosFixture(t)
	c := newChaosServer(t, a, WithReloadBreaker(resilience.BreakerConfig{
		FailureThreshold: 3,
		OpenFor:          3 * time.Second,
	}))
	reload := func(path string) *http.Response {
		resp := c.post(t, "/admin/model/reload", []byte(`{"path":"`+path+`"}`))
		resp.Body.Close()
		return resp
	}

	for i := 0; i < 3; i++ {
		if resp := reload("/nonexistent/model.bin"); resp.StatusCode != 400 {
			t.Fatalf("failing reload %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if got := c.reg.Gauge("model_breaker_state").Value(); got != 2 {
		t.Fatalf("breaker gauge = %v after threshold failures, want 2 (open)", got)
	}

	// Open: even a valid path fails fast with 503 + Retry-After.
	resp := reload(a.pathB)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("reload while open: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 from open breaker is missing Retry-After")
	}
	if got := c.reg.Counter("model_breaker_rejections_total").Value(); got != 1 {
		t.Errorf("breaker rejections = %d, want 1", got)
	}
	if gen := c.models.Generation(); gen != 1 {
		t.Errorf("open breaker let a reload through (generation %d)", gen)
	}

	// After OpenFor, the half-open probe succeeds and closes the breaker.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if resp := reload(a.pathB); resp.StatusCode == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after its open window")
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got := c.reg.Gauge("model_breaker_state").Value(); got != 0 {
		t.Errorf("breaker gauge = %v after successful probe, want 0 (closed)", got)
	}
	if gen := c.models.Generation(); gen != 2 {
		t.Errorf("generation = %d after recovery reload, want 2", gen)
	}
	resp = c.post(t, "/api/classify", a.singleBody(1))
	readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Errorf("classify after recovery: status %d", resp.StatusCode)
	}
}

// TestChaosDeadlineAllOrNothing proves the batch deadline contract: when
// injected per-row latency pushes a batch past the request deadline, the
// client gets one 504 error body and zero partial results -- never a
// truncated result set.
func TestChaosDeadlineAllOrNothing(t *testing.T) {
	a := chaosFixture(t)
	faults := resilience.NewFaults(5)
	if err := faults.Set(FaultClassifyRow, resilience.FaultSpec{
		Kind: resilience.FaultLatency, Rate: 1, Latency: 30 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	c := newChaosServer(t, a,
		WithBatchWorkers(1),
		WithFaults(faults),
		WithResilience(ResilienceConfig{RequestTimeout: 150 * time.Millisecond}),
	)

	// A single row fits inside the deadline even with the latency fault.
	resp := c.post(t, "/api/classify", a.singleBody(2))
	readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("single classify under latency fault: status %d", resp.StatusCode)
	}

	// Twelve rows at 30ms each on one worker cannot: 504, error only.
	start := time.Now()
	resp = c.post(t, "/api/classify/batch", a.batchBody(0, 12))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("over-deadline batch: status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline response took %v; the server kept grinding past the deadline", elapsed)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("504 body is not JSON: %s", body)
	}
	if _, ok := payload["results"]; ok {
		t.Fatalf("504 body leaked partial results: %s", body)
	}
	if _, ok := payload["error"]; !ok {
		t.Fatalf("504 body has no error field: %s", body)
	}
	if got := c.reg.Counter("http_timeouts_total", "stage", "handler").Value(); got != 1 {
		t.Errorf("http_timeouts_total{stage=handler} = %d, want 1", got)
	}
}

// TestChaosPanicIsolation injects panics into row inference and checks
// both halves of the isolation contract: the request answers 500 (not a
// hung connection or a dead process), and the server keeps serving.
func TestChaosPanicIsolation(t *testing.T) {
	a := chaosFixture(t)
	faults := resilience.NewFaults(6)
	if err := faults.Set(FaultClassifyRow, resilience.FaultSpec{
		Kind: resilience.FaultPanic, Rate: 1,
	}); err != nil {
		t.Fatal(err)
	}
	c := newChaosServer(t, a, WithBatchWorkers(2), WithFaults(faults))

	// Batch: the worker-pool panic is isolated into a per-task error.
	resp := c.post(t, "/api/classify/batch", a.batchBody(1, 4))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking batch: status %d, want 500 (%s)", resp.StatusCode, body)
	}
	if got := c.reg.Counter("classify_row_panics_total").Value(); got != 1 {
		t.Errorf("classify_row_panics_total = %d, want 1 (one per failed request)", got)
	}

	// Single: the panic unwinds to the middleware recovery.
	resp = c.post(t, "/api/classify", a.singleBody(3))
	readAll(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking single classify: status %d, want 500", resp.StatusCode)
	}
	if got := c.reg.Counter("http_panics_total").Value(); got != 1 {
		t.Errorf("http_panics_total = %d, want 1", got)
	}

	// The process survived both; ungoverned reads still work.
	var meta struct {
		Generation uint64 `json:"generation"`
	}
	if code := getJSON(t, c.srv.URL+"/api/features", &meta); code != 200 || meta.Generation != 1 {
		t.Fatalf("server unhealthy after isolated panics: status %d, generation %d", code, meta.Generation)
	}
}

// TestChaosShedNeverHangs fires a synchronized burst far above capacity
// at a tightly governed server: every request must come back promptly as
// either 200 or 429 + Retry-After. Shedding that queues, hangs, or
// drops connections fails here.
func TestChaosShedNeverHangs(t *testing.T) {
	a := chaosFixture(t)
	faults := resilience.NewFaults(8)
	if err := faults.Set(FaultClassifyRow, resilience.FaultSpec{
		Kind: resilience.FaultLatency, Rate: 1, Latency: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	c := newChaosServer(t, a,
		WithBatchWorkers(1),
		WithFaults(faults),
		WithResilience(ResilienceConfig{
			RequestTimeout: 2 * time.Second,
			MaxConcurrent:  1,
			MaxQueue:       0,
		}),
	)

	const burst = 20
	body := a.singleBody(4)
	start := make(chan struct{})
	type outcome struct {
		status     int
		retryAfter string
		err        error
	}
	results := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			client := &http.Client{Timeout: 10 * time.Second}
			resp, err := client.Post(c.srv.URL+"/api/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			results <- outcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}()
	}
	close(start)
	wg.Wait()
	close(results)

	ok, shed := 0, 0
	for res := range results {
		switch {
		case res.err != nil:
			t.Errorf("request failed at the transport: %v", res.err)
		case res.status == 200:
			ok++
		case res.status == http.StatusTooManyRequests:
			shed++
			if res.retryAfter != "1" {
				t.Errorf("429 Retry-After = %q, want %q", res.retryAfter, "1")
			}
		default:
			t.Errorf("unexpected status %d", res.status)
		}
	}
	if ok == 0 {
		t.Error("burst got zero admissions; the limiter is not releasing")
	}
	if shed == 0 {
		t.Errorf("burst of %d against capacity 1 shed nothing", burst)
	}
	if got := c.reg.Counter("http_shed_total", "reason", "queue_full").Value(); got != uint64(shed) {
		t.Errorf("http_shed_total = %d, client saw %d 429s", got, shed)
	}
}
