package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// columnsView serves a schema-only classifier and discovery fit over the
// default 36 feature names: enough for the decoders, which never score a
// row.
func columnsView(tb testing.TB) (*Server, *core.ModelView) {
	tb.Helper()
	names := core.FeatureNames(core.DefaultFeatures())
	mm := core.NewModelManager(nil)
	if _, err := mm.Swap(&core.JobClassifier{Features: names}); err != nil {
		tb.Fatal(err)
	}
	s := New(nil, nil, 0, WithModelManager(mm))
	if _, err := s.discovery.Swap(&core.DiscoveryModel{Features: names}); err != nil {
		tb.Fatal(err)
	}
	return s, mm.View()
}

// benchValue is feature j of row i in the bench-shaped bodies: a
// full-precision value in five decades.
func benchValue(i, j int) float64 {
	return math.Exp(float64((i*131+j*71)%997)/97 - 5)
}

// benchRowsBody is a rows-form body shaped like the batch-rows
// workloads': n rows of every feature, marshalled by encoding/json with
// threshold 0.5.
func benchRowsBody(names []string, n int) []byte {
	rows := make([]map[string]float64, n)
	for i := range rows {
		rows[i] = make(map[string]float64, len(names))
		for j, name := range names {
			rows[i][name] = benchValue(i, j)
		}
	}
	body, err := json.Marshal(map[string]any{"rows": rows, "threshold": 0.5})
	if err != nil {
		panic(err)
	}
	return body
}

// benchColumnsBody is a columns-form body shaped like the batch-cols-rf
// workload's: n rows of every feature as full-precision values spanning
// five decades, marshalled by encoding/json with threshold 0.5.
func benchColumnsBody(names []string, n int) []byte {
	cols := make(map[string][]float64, len(names))
	for j, name := range names {
		col := make([]float64, n)
		for i := range col {
			col[i] = benchValue(i, j)
		}
		cols[name] = col
	}
	body, err := json.Marshal(map[string]any{"columns": cols, "threshold": 0.5})
	if err != nil {
		panic(err)
	}
	return body
}

// FuzzBatchColumns holds scanBatch to its contract in both forms:
// whenever it accepts a body, encoding/json + resolveColumns or
// resolveRow (decodeBatch) accepts it too and builds the same batch,
// every value Float64bits-equal and every row's defaulted list equal.
func FuzzBatchColumns(f *testing.F) {
	s, v := columnsView(f)
	one := func(x string) []byte {
		return []byte(fmt.Sprintf(`{"columns":{%q:[%s]},"threshold":0.5}`, v.Model.Features[0], x))
	}
	two := fmt.Sprintf(`{"columns":{%q:[1,2],%q:[3,4]},"threshold":0.5}`, v.Model.Features[0], v.Model.Features[1])
	for _, seed := range [][]byte{benchColumnsBody(v.Model.Features, 2), []byte(two), one("-0"), one("1e-400"), one("1E+2")} {
		if _, ok := scanBatch(v, seed); !ok {
			f.Fatalf("scanner declines %q", seed)
		}
		f.Add(seed)
	}
	for _, x := range []string{"1e400", "01", ".5", "1.", "-", "0x1", "NaN"} {
		f.Add(one(x))
	}
	a, b := v.Model.Features[0], v.Model.Features[1]
	rows := fmt.Sprintf(`{"threshold":1,"rows":[{%q:1,%q:-0},{%q:2.5e-3}, {%q:1e-400}]}`, a, b, b, a)
	for _, seed := range [][]byte{benchRowsBody(v.Model.Features, 3), []byte(rows)} {
		if _, ok := scanBatch(v, seed); !ok {
			f.Fatalf("scanner declines %q", seed)
		}
		f.Add(seed)
	}
	f.Add([]byte(fmt.Sprintf(`{"rows":[{%q:1},{%q:1,%q:2}],"threshold":0.5}`, a, a, a)))
	f.Add([]byte(fmt.Sprintf(`{"rows":[{%q:1}],"columns":{%q:[1]}}`, a, a)))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanBatch(v, body)
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
	s, srv, _ := fullServer(t)
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
	batchDeclined(t, s, srv, cases)
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
		if b, ok := scanBatch(v, read); !ok || len(b.rows) != n {
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
