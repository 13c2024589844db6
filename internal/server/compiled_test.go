package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"repro/internal/core"
)

// TestClassifyServesCompiledEngine proves the HTTP serving path runs on
// the compiled engine with no API change: the features endpoint
// advertises it, and every single-classify response is bit-identical to
// the interpreted reference for the same row (JSON float64 encoding is
// round-trip exact, so the comparison really is bitwise).
func TestClassifyServesCompiledEngine(t *testing.T) {
	srv, res := testServer(t)

	var meta struct {
		Features []string `json:"features"`
		Compiled bool     `json:"compiled"`
	}
	if code := getJSON(t, srv.URL+"/api/features", &meta); code != 200 {
		t.Fatalf("features status %d", code)
	}
	if !meta.Compiled {
		t.Fatal("features endpoint does not advertise the compiled engine")
	}

	// The interpreted reference is the model the harness serves, walked
	// through its original pointer form.
	ref := paperForest(t, 91, 300)

	checked := 0
	for _, rec := range res.Records {
		if _, ok := core.LabelByCategory(rec); !ok {
			continue
		}
		if checked >= 10 {
			break
		}
		checked++
		row := core.Featurize(rec.Summary, core.DefaultFeatures())
		features := map[string]float64{}
		for i, name := range meta.Features {
			features[name] = row[i]
		}
		body, _ := json.Marshal(map[string]any{"features": features, "threshold": 0.25})
		resp, err := http.Post(srv.URL+"/api/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Label       string  `json:"label"`
			Probability float64 `json:"probability"`
			Classified  bool    `json:"classified"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("classify status %d", resp.StatusCode)
		}
		wantLabel, wantProb, wantOK := ref.ClassifyInterpreted(row, 0.25)
		if out.Label != wantLabel || out.Classified != wantOK ||
			math.Float64bits(out.Probability) != math.Float64bits(wantProb) {
			t.Fatalf("HTTP compiled response (%q, %x, %v) diverges from interpreted (%q, %x, %v)",
				out.Label, math.Float64bits(out.Probability), out.Classified,
				wantLabel, math.Float64bits(wantProb), wantOK)
		}
	}
	if checked == 0 {
		t.Fatal("no labeled records to classify")
	}
}
