package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubTarget mimics supremm-serve's surface well enough to drive the
// generator: a features endpoint plus classify endpoints with
// scriptable status behaviour.
func stubTarget(t *testing.T, handler func(w http.ResponseWriter, r *http.Request)) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	schema := func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"features": []string{"A", "B", "C"}})
	}
	mux.HandleFunc("GET /api/features", schema)
	mux.HandleFunc("GET /api/discover", schema)
	mux.HandleFunc("POST /api/classify", handler)
	mux.HandleFunc("POST /api/classify/batch", handler)
	mux.HandleFunc("POST /api/discover/assign", handler)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRunCountsMatchServer(t *testing.T) {
	var served atomic.Int64
	srv := stubTarget(t, func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"label": "ok"})
	})
	cfg, err := ParseSpec("url=" + srv.URL + ",rps=400,dur=500ms,mix=0.3,batch=4,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.OK != served.Load() || rep.OK != rep.Sent {
		t.Fatalf("sent=%d ok=%d served=%d", rep.Sent, rep.OK, served.Load())
	}
	if rep.Answered() != rep.OK {
		t.Fatalf("answered=%d want %d", rep.Answered(), rep.OK)
	}
	if rep.LatencyMS.Count != rep.OK || rep.LatencyMS.Max <= 0 {
		t.Fatalf("latency stats %+v", rep.LatencyMS)
	}
	if rep.ByStatus["200"] != rep.OK {
		t.Fatalf("byStatus = %v", rep.ByStatus)
	}
	if rep.Spec != cfg.Spec() {
		t.Fatalf("report spec %q != config spec %q", rep.Spec, cfg.Spec())
	}
}

func TestRunClassifiesStatuses(t *testing.T) {
	// Cycle deterministically through the status-code contract.
	var n atomic.Int64
	srv := stubTarget(t, func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 6 {
		case 0:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case 1:
			w.WriteHeader(http.StatusGatewayTimeout)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 3:
			w.WriteHeader(http.StatusInternalServerError)
		case 4:
			w.WriteHeader(http.StatusBadRequest)
		default:
			json.NewEncoder(w).Encode(map[string]any{"label": "ok"})
		}
	})
	cfg, err := ParseSpec("url=" + srv.URL + ",rps=200,dur=400ms,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each class counter is the sum of the ByStatus codes it names.
	for _, c := range []struct {
		class  string
		got    int64
		status string
	}{
		{"ok", rep.OK, "200"}, {"shed", rep.Shed, "429"}, {"timeouts", rep.Timeouts, "504"},
		{"unavailable", rep.Unavailable, "503"}, {"serverErrors", rep.ServerErrors, "500"},
		{"badRequests", rep.BadRequests, "400"},
	} {
		if c.got == 0 || c.got != rep.ByStatus[c.status] {
			t.Errorf("%s = %d, byStatus[%s] = %d: want equal and non-zero", c.class, c.got, c.status, rep.ByStatus[c.status])
		}
	}
	if len(rep.ByStatus) != 6 {
		t.Errorf("byStatus %v, want exactly the six stubbed codes", rep.ByStatus)
	}
	if rep.ShedWithoutRetryAfter != 0 {
		t.Fatalf("stub always sets Retry-After, yet %d flagged", rep.ShedWithoutRetryAfter)
	}
	if got := rep.Answered(); got != rep.Sent {
		t.Fatalf("statuses %d != sent %d", got, rep.Sent)
	}
}

func TestRunFlagsMissingRetryAfter(t *testing.T) {
	srv := stubTarget(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests) // contract violation: no Retry-After
	})
	cfg, err := ParseSpec("url=" + srv.URL + ",rps=100,dur=200ms")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 || rep.ShedWithoutRetryAfter != rep.Shed {
		t.Fatalf("shed=%d flagged=%d, want all flagged", rep.Shed, rep.ShedWithoutRetryAfter)
	}
}

// TestRunDrivesMixedRoutes points a three-way mix at the stub and checks
// every driven route sees traffic while the schema GETs stay off the
// report.
func TestRunDrivesMixedRoutes(t *testing.T) {
	var mu sync.Mutex
	byPath := map[string]int{}
	srv := stubTarget(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		byPath[r.URL.Path]++
		mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"label": "ok"})
	})
	cfg, err := ParseSpec("url=" + srv.URL + ",rps=400,dur=500ms,mix=0.25,dmix=0.25,batch=4,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != rep.Sent || rep.Sent == 0 {
		t.Fatalf("sent=%d ok=%d", rep.Sent, rep.OK)
	}
	total := 0
	for _, path := range []string{"/api/classify", "/api/classify/batch", "/api/discover/assign"} {
		if byPath[path] == 0 {
			t.Errorf("route %s saw no traffic (%v)", path, byPath)
		}
		total += byPath[path]
	}
	if int64(total) != rep.Sent {
		t.Errorf("driven routes served %d, report sent %d (stray traffic?)", total, rep.Sent)
	}
}

// TestRunRefusesMissingDiscoveryFit checks the generator fails fast when
// dmix asks for discovery traffic but the target has no fit loaded.
func TestRunRefusesMissingDiscoveryFit(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/features", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"features": []string{"A"}})
	})
	mux.HandleFunc("GET /api/discover", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cfg, err := ParseSpec("url=" + srv.URL + ",rps=1,dur=1s,dmix=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("Run succeeded with dmix against a fit-less target")
	}
}

func TestRunRefusesTargetWithoutModel(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/features", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cfg, err := ParseSpec("url=" + srv.URL + ",rps=1,dur=1s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("Run succeeded against a model-less target")
	}
}

func TestRunHonoursContextCancel(t *testing.T) {
	srv := stubTarget(t, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"label": "ok"})
	})
	cfg, err := ParseSpec("url=" + srv.URL + ",rps=50,dur=30s")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	if rep.Sent == 0 {
		t.Fatal("cancelled run sent nothing")
	}
}
