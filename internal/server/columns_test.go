package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// columnsView serves a schema-only classifier over the default 36
// feature names: enough for the decoders, which never score a row.
func columnsView(tb testing.TB) (*Server, *core.ModelView) {
	tb.Helper()
	mm := core.NewModelManager(nil)
	if _, err := mm.Swap(&core.JobClassifier{Features: core.FeatureNames(core.DefaultFeatures())}); err != nil {
		tb.Fatal(err)
	}
	return New(nil, nil, 0, WithModelManager(mm)), mm.View()
}

// benchColumnsBody is a columns-form body shaped like the batch-cols-rf
// workload's: n rows of every feature as full-precision values spanning
// five decades, marshalled by encoding/json with threshold 0.5.
func benchColumnsBody(names []string, n int) []byte {
	cols := make(map[string][]float64, len(names))
	for j, name := range names {
		col := make([]float64, n)
		for i := range col {
			col[i] = math.Exp(float64((i*131+j*71)%997)/97 - 5)
		}
		cols[name] = col
	}
	body, err := json.Marshal(map[string]any{"columns": cols, "threshold": 0.5})
	if err != nil {
		panic(err)
	}
	return body
}

// FuzzBatchColumns holds the scanner to its contract: whenever it accepts
// a body, encoding/json + resolveColumns (decodeBatch) accepts it too and
// builds the same batch, every value Float64bits-equal.
func FuzzBatchColumns(f *testing.F) {
	s, v := columnsView(f)
	one := func(x string) []byte {
		return []byte(fmt.Sprintf(`{"columns":{%q:[%s]},"threshold":0.5}`, v.Model.Features[0], x))
	}
	two := fmt.Sprintf(`{"columns":{%q:[1,2],%q:[3,4]},"threshold":0.5}`, v.Model.Features[0], v.Model.Features[1])
	for _, seed := range [][]byte{benchColumnsBody(v.Model.Features, 2), []byte(two), one("-0"), one("1e-400"), one("1E+2")} {
		if _, ok := scanColumns(v, seed); !ok {
			f.Fatalf("scanner declines %q", seed)
		}
		f.Add(seed)
	}
	for _, x := range []string{"1e400", "01", ".5", "1.", "-", "0x1", "NaN"} {
		f.Add(one(x))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanColumns(v, body)
		if !ok {
			return
		}
		want, ok := s.decodeBatch(httptest.NewRecorder(), v, body, nil)
		if !ok {
			t.Fatalf("scanner accepted a body encoding/json refuses: %q", body)
		}
		if len(got.rows) != len(want.rows) || math.Float64bits(got.threshold) != math.Float64bits(want.threshold) {
			t.Fatalf("%d rows at threshold %v, oracle %d at %v", len(got.rows), got.threshold, len(want.rows), want.threshold)
		}
		for i := range got.rows {
			for j := range got.rows[i] {
				if math.Float64bits(got.rows[i][j]) != math.Float64bits(want.rows[i][j]) {
					t.Fatalf("row %d feature %d: %v, oracle %v", i, j, got.rows[i][j], want.rows[i][j])
				}
			}
			if !slices.Equal(got.defaulted[i], want.defaulted[i]) {
				t.Fatalf("row %d defaulted %v, oracle %v", i, got.defaulted[i], want.defaulted[i])
			}
		}
	})
}

// TestBatchColumnsDeclined feeds the live handler every body shape the
// scanner must leave to encoding/json and requires the reply -- status
// and full body, 200s included -- to be exactly what decodeBatch and
// classifyBatch answer over the same bytes.
func TestBatchColumnsDeclined(t *testing.T) {
	res, err := core.RunPipeline(core.DefaultPipelineConfig(91, 200))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := core.BuildDataset(res.Records, core.LabelByCategory, core.DefaultFeatures())
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainJobClassifier(ds, core.PaperForest(3))
	if err != nil {
		t.Fatal(err)
	}
	s := New(res.Store, model, 0)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	v := s.models.View()
	a, b := v.Model.Features[0], v.Model.Features[1]

	overCap := strings.Repeat("1,", maxBatchRows) + "1"
	cases := []struct{ name, body string }{
		{"capitalized key", `{"Columns":{"` + a + `":[1,2]},"threshold":0.5}`},
		{"escaped key", `{"col\u0075mns":{"` + a + `":[1,2]},"threshold":0.5}`},
		{"duplicate feature", `{"columns":{"` + a + `":[1,2],"` + a + `":[3,4]},"threshold":0.5}`},
		{"duplicate columns", `{"columns":{"` + a + `":[1,2]},"columns":{"` + b + `":[3,4]},"threshold":0.5}`},
		{"null value", `{"columns":{"` + a + `":[1,null]},"threshold":0.5}`},
		{"unknown top-level key", `{"columns":{"` + a + `":[1,2]},"extra":1,"threshold":0.5}`},
		{"rows and columns", `{"rows":[{"` + a + `":1}],"columns":{"` + a + `":[1]},"threshold":0.5}`},
		{"unknown feature", `{"columns":{"BOGUS":[1,2]},"threshold":0.5}`},
		{"ragged, longer column second", `{"columns":{"` + b + `":[1],"` + a + `":[1,2]},"threshold":0.5}`},
		{"ragged, shorter column second", `{"columns":{"` + b + `":[1,2],"` + a + `":[1]},"threshold":0.5}`},
		{"no columns", `{"columns":{},"threshold":0.5}`},
		{"empty column", `{"columns":{"` + a + `":[]},"threshold":0.5}`},
		{"over-cap column", `{"columns":{"` + a + `":[` + overCap + `]},"threshold":0.5}`},
		{"out of range", `{"columns":{"` + a + `":[1e400]},"threshold":0.5}`},
		{"threshold out of [0,1]", `{"columns":{"` + a + `":[1]},"threshold":2}`},
		{"trailing comma", `{"columns":{"` + a + `":[1,2,]},"threshold":0.5}`},
		{"byte order mark", "\xef\xbb\xbf" + `{"columns":{"` + a + `":[1]},"threshold":0.5}`},
		{"truncated", `{"columns":{"` + a + `":[1,2`},
	}
	for _, tc := range cases {
		body := []byte(tc.body)
		if _, ok := scanColumns(v, body); ok {
			t.Errorf("%s: the scanner accepted %q", tc.name, body)
			continue
		}
		resp, err := http.Post(srv.URL+"/api/classify/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var live bytes.Buffer
		_, err = live.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}

		rec := httptest.NewRecorder()
		if b, ok := s.decodeBatch(rec, v, body, nil); ok {
			s.classifyBatch(rec, httptest.NewRequest("POST", "/api/classify/batch", nil), v, b)
		}
		if resp.StatusCode != rec.Code || !bytes.Equal(live.Bytes(), rec.Body.Bytes()) {
			t.Errorf("%s: served %d %s, encoding/json path %d %s", tc.name, resp.StatusCode, live.Bytes(), rec.Code, rec.Body.Bytes())
		}
	}
}

// TestAllocBatchColumnsDecode pins what the fast path allocates for a
// bench-shaped 2048 x 36 body: the body buffer, read once without
// regrowth, plus the n x F rows and the held first column -- at most
// len(body) + 2*n*F*8 bytes. Decoding through a map, or a read that
// doubles its buffer at EOF, each overshoot it.
func TestAllocBatchColumnsDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation; the alloc gate runs without -race")
	}
	_, v := columnsView(t)
	const n, runs = 2048, 5
	body := benchColumnsBody(v.Model.Features, n)
	decode := func() {
		r := httptest.NewRequest("POST", "/api/classify/batch", bytes.NewReader(body))
		read, err := readBody(httptest.NewRecorder(), r, maxBatchBody)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := scanColumns(v, read); !ok || len(b.rows) != n {
			t.Fatal("the scanner declined a bench-shaped body")
		}
	}
	decode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		decode()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(body) + 2*n*v.NumFeatures()*8); got > limit {
		t.Errorf("decoding a %d-byte columns body allocates %d bytes, want <= %d", len(body), got, limit)
	}
}
