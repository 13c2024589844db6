package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/warehouse"
)

// testServer builds a server over a small real pipeline run.
func testServer(t *testing.T) (*httptest.Server, *core.PipelineResult) {
	t.Helper()
	res := pipeline(t, 91, 300)
	srv := httptest.NewServer(New(res.Store, paperForest(t, 91, 300), 6400))
	t.Cleanup(srv.Close)
	return srv, res
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestOverview(t *testing.T) {
	srv, res := testServer(t)
	var got struct {
		Jobs     int     `json:"jobs"`
		CPUHours float64 `json:"cpuHours"`
	}
	if code := getJSON(t, srv.URL+"/api/overview", &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if got.Jobs != len(res.Records) || got.CPUHours <= 0 {
		t.Errorf("overview = %+v", got)
	}
}

func TestGroupBy(t *testing.T) {
	srv, _ := testServer(t)
	var rows []struct {
		Key        string  `json:"key"`
		Jobs       int     `json:"jobs"`
		MixPercent float64 `json:"mixPercent"`
	}
	if code := getJSON(t, srv.URL+"/api/groupby?dim=population", &rows); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(rows) == 0 {
		t.Fatal("no groups")
	}
	var mix float64
	for _, r := range rows {
		mix += r.MixPercent
	}
	if mix < 99.9 || mix > 100.1 {
		t.Errorf("mix percentages sum to %v", mix)
	}
	if code := getJSON(t, srv.URL+"/api/groupby?dim=bogus", nil); code != 400 {
		t.Errorf("bad dimension -> %d, want 400", code)
	}
}

// TestEmptyWarehouseGroupBy: with no jobs, every warehouse route that
// answers a list (group-by, drill-down, utilization, rollup) answers an
// empty JSON list, not null, whether the snapshot is a Store's or a
// Sharded's.
func TestEmptyWarehouseGroupBy(t *testing.T) {
	for name, wh := range map[string]Warehouse{
		"store":   warehouse.NewStore(),
		"sharded": warehouse.NewSharded(warehouse.ShardedConfig{}),
	} {
		srv := httptest.NewServer(New(wh, nil, 6400))
		for _, path := range []string{
			"/api/groupby?dim=user", "/api/groupby?dim=application",
			"/api/drilldown?outer=user&inner=application", "/api/utilization?nodes=1", "/api/rollup",
		} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if body := strings.TrimSpace(string(readAll(t, resp))); resp.StatusCode != 200 || body != "[]" {
				t.Errorf("%s %s: %d %s, want 200 []", name, path, resp.StatusCode, body)
			}
		}
		srv.Close()
	}
}

// TestWarehouseRoutesEncodeRecords: each warehouse route writes the
// warehouse's own value and reshapes nothing. Its body is the JSON
// encoding of the matching Records query over the records it serves,
// for every dimension, whether a Store's walk or a Sharded's tables
// answer it. The retired /api/warehouse/* twins answer 404.
func TestWarehouseRoutesEncodeRecords(t *testing.T) {
	res := pipeline(t, 91, 300)
	sharded := warehouse.NewSharded(warehouse.ShardedConfig{})
	for _, r := range res.Records {
		if err := sharded.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	type recordWarehouse interface {
		Warehouse
		Records() warehouse.Records
	}
	for name, wh := range map[string]recordWarehouse{"store": res.Store, "sharded": sharded} {
		srv := httptest.NewServer(New(wh, nil, 6400))
		recs := wh.Records()
		want := map[string]any{
			"/api/overview":            recs.Totals(),
			"/api/utilization":         recs.Utilization(6400),
			"/api/utilization?nodes=7": recs.Utilization(7),
			"/api/rollup":              recs.Rollup(),
		}
		for _, d := range warehouse.Dimensions {
			want["/api/groupby?dim="+string(d)] = recs.GroupBy(d)
			for _, inner := range warehouse.Dimensions {
				want["/api/drilldown?outer="+string(d)+"&inner="+string(inner)] = recs.DrillDown(d, inner)
			}
		}
		for path, v := range want {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if body := readAll(t, resp); resp.StatusCode != http.StatusOK || string(body) != string(b)+"\n" {
				t.Errorf("%s %s: %d\n got:  %.300s\n want: %.300s", name, path, resp.StatusCode, body, b)
			}
		}
		// The one route family: the old /api/warehouse/* twins are gone.
		for _, path := range []string{"/api/warehouse/groupby?dim=user", "/api/warehouse/totals", "/api/warehouse/rollup"} {
			if code := getJSON(t, srv.URL+path, nil); code != http.StatusNotFound {
				t.Errorf("%s %s: %d, want 404", name, path, code)
			}
		}
		srv.Close()
	}
}

func TestDrillDown(t *testing.T) {
	srv, _ := testServer(t)
	var groups []struct {
		Key   string `json:"key"`
		Jobs  int    `json:"jobs"`
		Inner []struct {
			Key  string `json:"key"`
			Jobs int    `json:"jobs"`
		} `json:"inner"`
	}
	if code := getJSON(t, srv.URL+"/api/drilldown?outer=population&inner=jobsize", &groups); code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, g := range groups {
		total := 0
		for _, in := range g.Inner {
			total += in.Jobs
		}
		if total != g.Jobs {
			t.Errorf("group %s inner jobs %d != %d", g.Key, total, g.Jobs)
		}
	}
	if code := getJSON(t, srv.URL+"/api/drilldown?outer=population", nil); code != 400 {
		t.Errorf("missing inner -> %d", code)
	}
}

func TestUtilization(t *testing.T) {
	srv, _ := testServer(t)
	var pts []struct {
		Month       string  `json:"month"`
		Utilization float64 `json:"utilization"`
	}
	if code := getJSON(t, srv.URL+"/api/utilization", &pts); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(pts) == 0 || pts[0].Month == "" || pts[0].Utilization <= 0 {
		t.Fatalf("utilization points %+v", pts)
	}
	if code := getJSON(t, srv.URL+"/api/utilization?nodes=abc", nil); code != 400 {
		t.Errorf("bad nodes -> %d", code)
	}
}

func TestFeaturesAndClassify(t *testing.T) {
	srv, res := testServer(t)
	var meta struct {
		Features []string `json:"features"`
		Classes  []string `json:"classes"`
	}
	if code := getJSON(t, srv.URL+"/api/features", &meta); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(meta.Features) == 0 || len(meta.Classes) == 0 {
		t.Fatal("empty feature metadata")
	}

	// Classify a real community job's summary through the API.
	var rec *warehouse.Record
	for _, r := range res.Records {
		if _, ok := core.LabelByCategory(r); ok {
			rec = r
			break
		}
	}
	row := core.Featurize(rec.Summary, core.DefaultFeatures())
	features := map[string]float64{}
	for i, name := range meta.Features {
		features[name] = row[i]
	}
	body, _ := json.Marshal(map[string]any{"features": features, "threshold": 0.0})
	resp, err := http.Post(srv.URL+"/api/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("classify status %d", resp.StatusCode)
	}
	var out struct {
		Label       string  `json:"label"`
		Probability float64 `json:"probability"`
		Classified  bool    `json:"classified"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Classified || out.Probability <= 0 || out.Label == "" {
		t.Errorf("classify = %+v", out)
	}
	want, _ := core.LabelByCategory(rec)
	if out.Label != want {
		t.Logf("API label %q vs true %q (misclassification is allowed, just logged)", out.Label, want)
	}
}

func TestClassifyValidation(t *testing.T) {
	srv, _ := testServer(t)
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/api/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("not json"); code != 400 {
		t.Errorf("garbage body -> %d", code)
	}
	if code := post(`{"features":{"NOPE":1},"threshold":0.5}`); code != 400 {
		t.Errorf("unknown feature -> %d", code)
	}
	if code := post(`{"features":{},"threshold":2}`); code != 400 {
		t.Errorf("bad threshold -> %d", code)
	}
}

func TestNoModelLoaded(t *testing.T) {
	srv := httptest.NewServer(New(pipeline(t, 92, 60).Store, nil, 0))
	defer srv.Close()
	if code := getJSON(t, srv.URL+"/api/features", nil); code != 503 {
		t.Errorf("features without model -> %d", code)
	}
	resp, err := http.Post(srv.URL+"/api/classify", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("classify without model -> %d", resp.StatusCode)
	}
	// Utilization without configured nodes needs the query param.
	if code := getJSON(t, srv.URL+"/api/utilization", nil); code != 400 {
		t.Errorf("utilization without nodes -> %d", code)
	}
	if code := getJSON(t, srv.URL+"/api/utilization?nodes=100", nil); code != 200 {
		t.Errorf("utilization with nodes -> %d", code)
	}
}
