package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// benchView builds a model view over f synthetic feature names plus a
// full request map touching every feature -- the worst case for the old
// linear scan.
func benchView(b *testing.B, f int) (*core.ModelView, map[string]float64) {
	b.Helper()
	names := make([]string, f)
	features := make(map[string]float64, f)
	for i := range names {
		names[i] = fmt.Sprintf("FEATURE_%03d", i)
		features[names[i]] = float64(i)
	}
	mm := core.NewModelManager(nil)
	if _, err := mm.Swap(&core.JobClassifier{Features: names}); err != nil {
		b.Fatal(err)
	}
	return mm.View(), features
}

// linearResolveRow is the pre-manager implementation (server.go:218-231
// before the fix): each request feature scanned Features front to back,
// O(F) per attribute and O(F^2) for a full request. Kept here so the
// benchmark proves the win.
func linearResolveRow(features []string, req map[string]float64) ([]float64, []string) {
	row := make([]float64, len(features))
	unknown := []string{}
	for name, v := range req {
		idx := -1
		for i, f := range features {
			if f == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			unknown = append(unknown, name)
			continue
		}
		row[idx] = v
	}
	return row, unknown
}

// BenchmarkFeatureResolution compares the prebuilt-index path against
// the old linear scan at F=32 (the acceptance case) and F=128 (where
// quadratic growth is unmistakable: indexed cost grows ~4x, linear
// ~16x).
func BenchmarkFeatureResolution(b *testing.B) {
	for _, f := range []int{32, 128} {
		view, req := benchView(b, f)
		b.Run(fmt.Sprintf("indexed-F%d", f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row, _, err := resolveRow(view, req)
				if err != nil || len(row) != f {
					b.Fatal("bad resolution")
				}
			}
		})
		b.Run(fmt.Sprintf("linear-F%d", f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row, unknown := linearResolveRow(view.Model.Features, req)
				if len(unknown) != 0 || len(row) != f {
					b.Fatal("bad resolution")
				}
			}
		})
	}
}

// BenchmarkBatchColumnsDecode decodes a body shaped like batch-cols-rf's
// (2048 rows x 36 features, ~1.3 MB) through the columns scanner and
// through the encoding/json + resolveColumns path it stands in for;
// MB/s is over the body.
func BenchmarkBatchColumnsDecode(b *testing.B) {
	s, v := columnsView(b)
	benchDecode(b, benchColumnsBody(v.Model.Features, 2048), func(body []byte) bool {
		_, ok := scanBatch(v, body)
		return ok
	}, func(body []byte) bool {
		_, ok := s.decodeBatch(httptest.NewRecorder(), v, body, nil)
		return ok
	})
}

// BenchmarkBatchRowsDecode is BenchmarkBatchColumnsDecode for the rows
// form, at batch-rows-svm's 256 rows x 36 features.
func BenchmarkBatchRowsDecode(b *testing.B) {
	s, v := columnsView(b)
	benchDecode(b, benchRowsBody(v.Model.Features, 256), func(body []byte) bool {
		_, ok := scanBatch(v, body)
		return ok
	}, func(body []byte) bool {
		_, ok := s.decodeBatch(httptest.NewRecorder(), v, body, nil)
		return ok
	})
}

// BenchmarkScanRow decodes a single-rf-shaped /api/classify body, all 36
// features and a threshold, through scanRow and through decodeRow.
func BenchmarkScanRow(b *testing.B) {
	s, v := columnsView(b)
	row := make(map[string]float64, len(v.Model.Features))
	for j, name := range v.Model.Features {
		row[name] = benchValue(0, j)
	}
	body, err := json.Marshal(map[string]any{"features": row, "threshold": 0.5})
	if err != nil {
		b.Fatal(err)
	}
	benchDecode(b, body, func(body []byte) bool {
		var req classifyRequest
		_, _, ok := s.classify.scan(v, body, &req)
		return ok
	}, func(body []byte) bool {
		var req classifyRequest
		_, _, ok := s.classify.decodeRow(httptest.NewRecorder(), v, body, nil, &req)
		return ok
	})
}

// benchDecode runs a scanner and the encoding/json path it stands in for
// over one body, as the sub-benchmarks "scanner" and "encoding-json".
func benchDecode(b *testing.B, body []byte, scanner, stdlib func([]byte) bool) {
	for _, sub := range []struct {
		name   string
		decode func([]byte) bool
	}{{"scanner", scanner}, {"encoding-json", stdlib}} {
		b.Run(sub.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !sub.decode(body) {
					b.Fatalf("%s declined", sub.name)
				}
			}
		})
	}
}
