package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// obsServer builds an instrumented server over a small pipeline run.
func obsServer(t *testing.T, opts ...Option) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := httptest.NewServer(New(pipeline(t, 91, 200).Store, paperForest(t, 91, 200), 6400, append([]Option{WithMetrics(reg)}, opts...)...))
	t.Cleanup(srv.Close)
	return srv, reg
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := obsServer(t)

	// Drive some traffic first so counters and histograms have samples.
	if resp, _ := get(t, srv.URL+"/api/overview"); resp.StatusCode != 200 {
		t.Fatalf("overview status %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/api/groupby?dim=bogus"); resp.StatusCode != 400 {
		t.Fatalf("bad groupby status %d", resp.StatusCode)
	}
	body, _ := json.Marshal(map[string]any{"features": map[string]float64{}, "threshold": 0.0})
	resp, err := http.Post(srv.URL+"/api/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, text := get(t, srv.URL+"/metrics")
	if mresp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		`http_requests_total{code="200",path="/api/overview"} 1`,
		`http_requests_total{code="400",path="/api/groupby"} 1`,
		`http_request_seconds_bucket{path="/api/overview",le="+Inf"} 1`,
		`http_request_seconds_count{path="/api/overview"} 1`,
		"# TYPE http_requests_total counter",
		"# TYPE http_request_seconds histogram",
		"# HELP classify_outcomes_total",
		`classify_outcomes_total{outcome="`,
		"http_in_flight_requests 1", // the /metrics request itself
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n--- exposition ---\n%s", want, text)
		}
	}
}

func TestClassifyOutcomeCounters(t *testing.T) {
	srv, reg := obsServer(t)
	post := func(body string) {
		resp, err := http.Post(srv.URL+"/api/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post("garbage")
	post(`{"features":{"NOPE":1},"threshold":0.5}`)
	post(`{"features":{"CPU_USER":0.9},"threshold":0.0}`)  // classifies (threshold 0 accepts anything)
	post(`{"features":{"CPU_USER":0.9},"threshold":0.99}`) // almost surely below threshold

	if got := reg.Counter("classify_outcomes_total", "outcome", "bad_request").Value(); got != 2 {
		t.Errorf("bad_request = %d, want 2", got)
	}
	cls := reg.Counter("classify_outcomes_total", "outcome", "classified").Value()
	below := reg.Counter("classify_outcomes_total", "outcome", "below_threshold").Value()
	if cls+below != 2 {
		t.Errorf("classified=%d below_threshold=%d, want total 2", cls, below)
	}
}

func TestRequestIDMiddleware(t *testing.T) {
	srv, _ := obsServer(t)

	resp, _ := get(t, srv.URL+"/api/overview")
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no generated X-Request-ID")
	}

	req, _ := http.NewRequest("GET", srv.URL+"/api/overview", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-7")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "caller-supplied-7" {
		t.Errorf("inbound request id not echoed: %q", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	var buf strings.Builder
	s := New(nil, nil, 0, WithMetrics(reg), WithLogger(obs.NewLogger(&buf, obs.LevelError)))
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler -> %d, want 500", rec.Code)
	}
	if got := reg.Counter("http_panics_total").Value(); got != 1 {
		t.Errorf("panic counter = %d", got)
	}
	if !strings.Contains(buf.String(), "kaboom") {
		t.Errorf("panic not logged: %q", buf.String())
	}
}

func TestPprofGated(t *testing.T) {
	srv, _ := obsServer(t)
	if resp, _ := get(t, srv.URL+"/debug/pprof/"); resp.StatusCode == 200 {
		t.Error("pprof served without WithPprof")
	}

	srvOn, _ := obsServer(t, WithPprof())
	resp, body := get(t, srvOn.URL+"/debug/pprof/")
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Error("pprof index missing profile listing")
	}
	if resp, _ := get(t, srvOn.URL+"/debug/pprof/symbol"); resp.StatusCode != 200 {
		t.Errorf("pprof symbol status %d", resp.StatusCode)
	}
}

func TestStatusWriterFlushAndUnwrap(t *testing.T) {
	s := New(nil, nil, 0)
	flushed := false
	s.mux.HandleFunc("GET /stream", func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("middleware-wrapped writer does not implement http.Flusher")
			return
		}
		io.WriteString(w, "chunk")
		f.Flush()
		flushed = true
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok || u.Unwrap() == nil {
			t.Error("middleware-wrapped writer does not Unwrap to the underlying writer")
		}
	})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/stream", nil))
	if !flushed {
		t.Fatal("handler never reached Flush")
	}
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying ResponseWriter")
	}
	if rec.Code != http.StatusOK {
		t.Errorf("status = %d, want 200", rec.Code)
	}
}

func TestUninstrumentedServerStillWorks(t *testing.T) {
	srv := httptest.NewServer(New(pipeline(t, 92, 60).Store, nil, 100))
	defer srv.Close()
	if resp, _ := get(t, srv.URL+"/api/overview"); resp.StatusCode != 200 {
		t.Errorf("overview status %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/metrics"); resp.StatusCode == 200 {
		t.Error("/metrics served without WithMetrics")
	}
	// Middleware still assigns request IDs even with no registry/logger.
	resp, _ := get(t, srv.URL+"/api/overview")
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no request id on uninstrumented server")
	}
}
