package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/ml/compile"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/warehouse"
)

// labelledPaths is the frozen `path` metric label set. The route table
// must reproduce it exactly whatever subsystems are armed: dashboards
// and the flight recorder's by-route ledger key on these strings.
var labelledPaths = []string{
	"/api/overview", "/api/groupby", "/api/drilldown", "/api/utilization", "/api/rollup",
	"/api/features", "/api/classify", "/api/classify/batch", "/admin/model/reload",
	"/api/discover", "/api/discover/assign", "/api/lifecycle",
	"/admin/lifecycle/retrain", "/admin/lifecycle/promote", "/admin/lifecycle/rollback",
	"/metrics", "/healthz", "/readyz",
	"/debug/requests", "/debug/slo", "/debug/bundle", "/debug/ingest",
}

var governedPaths = []string{
	"/api/classify", "/api/classify/batch", "/api/discover/assign",
}

// TestRouteTableInvariants pins the route table as the single source of
// mux registration, the path label set and the governed flag.
func TestRouteTableInvariants(t *testing.T) {
	ing, err := ingest.NewServer(ingest.Config{Sink: warehouse.NewSharded(warehouse.ShardedConfig{}), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Drain)
	full := New(nil, nil, 0, WithMetrics(obs.NewRegistry()), WithPprof(),
		WithFlightRecorder(flight.NewRecorder(flight.DefaultConfig())), WithIngest(ing))
	bare := New(nil, nil, 0)

	for name, s := range map[string]*Server{"full": full, "bare": bare} {
		var labels, governed []string
		seen := map[string]bool{}
		for _, rt := range s.routes() {
			key := rt.method + " " + rt.path
			if seen[key] {
				t.Errorf("%s: route %q appears twice in the table", name, key)
			}
			seen[key] = true

			// Every table path has a label, and a mounted row is what the
			// mux actually serves for it.
			label := s.pathLabel(rt.path)
			if label == "other" {
				t.Errorf("%s: table path %q has no path label", name, rt.path)
			}
			if !strings.HasPrefix(rt.path, "/debug/pprof") {
				labels = append(labels, label)
			}
			if rt.governed {
				governed = append(governed, rt.path)
			}
			method := rt.method
			if method == "" {
				method = "GET"
			}
			_, pattern := s.mux.Handler(httptest.NewRequest(method, rt.path, nil))
			if want := strings.TrimSpace(key); rt.mounted && pattern != want {
				t.Errorf("%s: mux serves %q with pattern %q, want %q", name, key, pattern, want)
			}
			if !rt.mounted && pattern != "" {
				t.Errorf("%s: unmounted route %q is registered as %q", name, key, pattern)
			}
			if s.governedPath[rt.path] != rt.governed {
				t.Errorf("%s: governed flag for %q does not come from the table", name, rt.path)
			}
		}
		if got, want := uniqueSorted(labels), uniqueSorted(labelledPaths); !equalStrings(got, want) {
			t.Errorf("%s: path label set moved:\n got:  %v\n want: %v", name, got, want)
		}
		if got, want := uniqueSorted(governed), uniqueSorted(governedPaths); !equalStrings(got, want) {
			t.Errorf("%s: governed set = %v, want the four row routes %v", name, got, want)
		}
		for path, want := range map[string]string{
			"/api/nope": "other", "/": "other", "/api/classify/": "other",
			"/debug/pprof/heap": "/debug/pprof", "/debug/pprof/": "/debug/pprof",
		} {
			if got := s.pathLabel(path); got != want {
				t.Errorf("%s: pathLabel(%q) = %q, want %q", name, path, got, want)
			}
		}
		if _, pattern := s.mux.Handler(httptest.NewRequest("GET", "/api/nope", nil)); pattern != "" {
			t.Errorf("%s: unknown path matched pattern %q", name, pattern)
		}
	}
}

func uniqueSorted(in []string) []string {
	set := map[string]bool{}
	for _, s := range in {
		set[s] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	return strings.Join(a, "\x00") == strings.Join(b, "\x00")
}

// TestSinglePointsOfTruth greps the package's production sources for the
// call sites that must exist exactly once: a second one is a handler
// that bypassed the route table or the body decoder.
func TestSinglePointsOfTruth(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	for call, why := range map[string]string{
		"s.mux.Handle":         "every mux pattern comes from the route table",
		"http.MaxBytesReader(": "every request body goes through readBody",
	} {
		if n := strings.Count(src.String(), call); n != 1 {
			t.Errorf("%q appears %d times in package server, want 1: %s", call, n, why)
		}
	}
}

// fullServer serves both model families (category classifier, a
// refitted discovery model), so every POST route gets past its no-model
// check.
func fullServer(t *testing.T) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s := New(pipeline(t, 91, 200).Store, paperForest(t, 91, 200), 6400, WithMetrics(reg))
	if _, err := s.RefitDiscovery(core.DiscoveryConfig{K: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv, reg
}

// TestPostBodyContract drives every POST route that reads a body through
// the one decoder's contract: past the cap is 413 everywhere, anything
// but whitespace after the JSON value is 400, and a bodyless POST is
// accepted only where every field is optional (reload, refit).
func TestPostBodyContract(t *testing.T) {
	_, srv, reg := fullServer(t)
	names := featureNames(t, srv.URL)
	feat := fmt.Sprintf(`{"features":{"%s":1}}`, names[0])

	routes := []struct {
		path    string
		limit   int
		valid   string // a well-formed body the route accepts
		family  string // outcome counter family ("" = control plane, uncounted)
		emptyOK bool
	}{
		{"/api/classify", maxClassifyBody, feat, "classify_outcomes_total", false},
		{"/api/classify/batch", maxBatchBody, fmt.Sprintf(`{"rows":[{"%s":1}]}`, names[0]), "classify_outcomes_total", false},
		{"/api/classify/batch", maxBatchBody, fmt.Sprintf(`{"columns":{"%s":[1]}}`, names[0]), "classify_outcomes_total", false},
		{"/api/discover/assign", maxClassifyBody, feat, "discover_assign_outcomes_total", false},
		{"/api/discover", maxClassifyBody, `{"k":3,"seed":1}`, "", true},
		{"/admin/model/reload", maxClassifyBody, `{"path":""}`, "", true},
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var payload map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&payload)
		msg, _ := payload["error"].(string)
		return resp.StatusCode, msg
	}
	outcome := func(family, name string) uint64 {
		if family == "" {
			return 0
		}
		return reg.Counter(family, "outcome", name).Value()
	}

	for _, rt := range routes {
		t.Run(rt.path, func(t *testing.T) {
			over, bad := outcome(rt.family, "oversized"), outcome(rt.family, "bad_request")

			huge := `{"features":{"` + strings.Repeat("x", rt.limit) + `":1}}`
			if code, msg := post(rt.path, huge); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "exceeds") {
				t.Errorf("oversized body: status %d msg %q, want 413", code, msg)
			}
			// Padding past the cap after a complete value is still oversize.
			if code, _ := post(rt.path, rt.valid+strings.Repeat(" ", rt.limit)); code != http.StatusRequestEntityTooLarge {
				t.Errorf("valid value + whitespace past the cap: status %d, want 413", code)
			}
			for _, trailer := range []string{` x`, ` {}`, `]`, rt.valid} {
				if code, msg := post(rt.path, rt.valid+trailer); code != http.StatusBadRequest || !strings.Contains(msg, "bad request body") {
					t.Errorf("trailing %q: status %d msg %q, want 400 bad request body", trailer, code, msg)
				}
			}
			if code, msg := post(rt.path, rt.valid+" \n\t"); strings.Contains(msg, "bad request body") {
				t.Errorf("trailing whitespace refused: status %d msg %q", code, msg)
			}
			code, msg := post(rt.path, "")
			if refused := code == http.StatusBadRequest && strings.Contains(msg, "bad request body"); refused == rt.emptyOK {
				t.Errorf("empty body: status %d msg %q, emptyOK=%v", code, msg, rt.emptyOK)
			}

			if rt.family != "" {
				if got := outcome(rt.family, "oversized") - over; got != 2 {
					t.Errorf("%s{oversized} moved by %d, want 2", rt.family, got)
				}
				if got := outcome(rt.family, "bad_request") - bad; got != 5 {
					t.Errorf("%s{bad_request} moved by %d, want 5 (4 trailers + empty body)", rt.family, got)
				}
			}
		})
	}
}

// TestAllocGovernedRowStage gates the governed-row pipeline's per-row
// stage -- fault site, deadline check, timed compiled-RF call, latency
// histogram, outcome counter -- at zero allocations with the recorder
// disarmed: the stage the batch endpoint runs thousands of times per
// request must add nothing to the compiled engine's own zero. The batch
// route's block body -- the same stage around one model call for
// compile.BlockRows rows -- is held to zero too, on the forest and on
// the SVM, whose block runs the row-blocked kernel.
func TestAllocGovernedRowStage(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector allocations; the alloc gate runs without -race")
	}
	ds := categoryData(t, 91, 200)
	reg := obs.NewRegistry()
	s := New(pipeline(t, 91, 200).Store, paperForest(t, 91, 200), 0, WithMetrics(reg))
	v := s.models.View()
	if !v.Compiled() {
		t.Fatal("fixture model is not on the compiled engine")
	}
	ctx := context.Background()
	req := classifyRequest{Threshold: 0.5}
	row := ds.X[0]
	if avg := testing.AllocsPerRun(500, func() {
		if _, err := s.classify.row(ctx, v, &req, row); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("governed row stage allocates %.2f per row, want 0", avg)
	}
	if got := reg.Histogram("classify_row_seconds", nil).Count(); got < 500 {
		t.Errorf("classify_row_seconds saw %d rows: the gated stage skipped its metrics", got)
	}

	const n = compile.BlockRows
	b := batch{rows: ds.X[:n], defaulted: make([][]string, n), threshold: 0.5}
	verdicts, results := make([]core.Verdict, n), make([]classifyResult, n)
	for _, model := range []*core.JobClassifier{paperForest(t, 91, 200), paperSVM(t)} {
		s := New(nil, model, 0, WithMetrics(obs.NewRegistry()))
		v := s.models.View()
		if avg := testing.AllocsPerRun(200, func() {
			if err := s.classifyBlock(ctx, v, b, 0, n, verdicts, results); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: governed block stage allocates %.2f per block, want 0", model.Algo, avg)
		}
	}
}
