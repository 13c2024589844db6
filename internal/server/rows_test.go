package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// postRaw posts body as-is and returns the reply's status and bytes.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// rowCase is one single-row route as the tests drive it: its path,
// whether its request has a threshold, its scanner, and its
// encoding/json path's full reply.
type rowCase struct {
	path         string
	hasThreshold bool
	scans        func(body []byte) bool
	oracle       func(body []byte) *httptest.ResponseRecorder
}

func newRowCase[M core.Servable, Q, R any](path string, p *rowRoute[M, Q, R]) rowCase {
	return rowCase{
		path:         path,
		hasThreshold: p.threshold != nil,
		scans: func(body []byte) bool {
			var req Q
			_, _, ok := p.scan(p.mgr.View(), body, &req)
			return ok
		},
		oracle: func(body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			v := p.mgr.View()
			var req Q
			if row, defaulted, ok := p.decodeRow(rec, v, body, nil, &req); ok {
				p.answer(rec, httptest.NewRequest("POST", path, nil), v, &req, row, defaulted)
			}
			return rec
		},
	}
}

// rowCases lists the two single-row routes.
func rowCases(s *Server) []rowCase {
	return []rowCase{
		newRowCase("/api/classify", &s.classify),
		newRowCase("/api/discover/assign", &s.assign),
	}
}

// sameReply posts body to route and requires the reply -- status and
// full body -- to be exactly the encoding/json path's.
func sameReply(t *testing.T, srv *httptest.Server, route rowCase, name string, body []byte) {
	t.Helper()
	code, live := postRaw(t, srv.URL+route.path, body)
	rec := route.oracle(body)
	if code != rec.Code || !bytes.Equal(live, rec.Body.Bytes()) {
		t.Errorf("%s %s: served %d %s, encoding/json path %d %s", route.path, name, code, live, rec.Code, rec.Body.Bytes())
	}
}

// escapeFirst spells name's first byte as a \u escape.
func escapeFirst(name string) string {
	return fmt.Sprintf(`\u%04x`, name[0]) + name[1:]
}

// singleRowDeclined is every single-row body shape the scanner must
// leave to encoding/json, over features a and b and a class name of the
// classifier. Some are refusals, some (a capitalized key, an unknown
// top-level key) are answered 200 by encoding/json.
func singleRowDeclined(a, b, class string) []struct{ name, body string } {
	return []struct{ name, body string }{
		{"capitalized key", `{"Features":{"` + a + `":1,"` + b + `":2},"threshold":0.5}`},
		{"escaped key", `{"feat\u0075res":{"` + a + `":1},"threshold":0.5}`},
		{"escaped feature", `{"features":{"` + escapeFirst(a) + `":1},"threshold":0.5}`},
		{"case-folded feature", `{"features":{"` + strings.ToLower(a) + `":1},"threshold":0.5}`},
		{"duplicate feature", `{"features":{"` + a + `":1,"` + a + `":2},"threshold":0.5}`},
		{"duplicate features", `{"features":{"` + a + `":1},"features":{"` + b + `":2},"threshold":0.5}`},
		{"duplicate threshold", `{"features":{"` + a + `":1},"threshold":0.5,"threshold":0.9}`},
		{"null value", `{"features":{"` + a + `":null,"` + b + `":2},"threshold":0.5}`},
		{"null threshold", `{"features":{"` + a + `":1},"threshold":null}`},
		{"null features", `{"features":null,"threshold":0.5}`},
		{"empty body object", `{}`},
		{"empty features", `{"features":{},"threshold":0.5}`},
		{"unknown feature", `{"features":{"BOGUS":1},"threshold":0.5}`},
		{"unknown top-level key", `{"features":{"` + a + `":1},"extra":1,"threshold":0.5}`},
		{"thresholds", `{"features":{"` + a + `":1},"threshold":0.5,"thresholds":{"` + class + `":0.9}}`},
		{"threshold 2", `{"features":{"` + a + `":1},"threshold":2}`},
		{"out of range", `{"features":{"` + a + `":1e400},"threshold":0.5}`},
		{"leading zero", `{"features":{"` + a + `":01},"threshold":0.5}`},
		{"string value", `{"features":{"` + a + `":"1"},"threshold":0.5}`},
		{"array value", `{"features":{"` + a + `":[1]},"threshold":0.5}`},
		{"byte order mark", "\xef\xbb\xbf" + `{"features":{"` + a + `":1},"threshold":0.5}`},
		{"trailing comma", `{"features":{"` + a + `":1,},"threshold":0.5}`},
		{"trailing data", `{"features":{"` + a + `":1},"threshold":0.5} 1`},
		{"truncated", `{"features":{"` + a + `":1`},
	}
}

// TestRowRoutesDeclined posts every declined body shape to each
// single-row route and requires the scanner to decline it and the reply
// -- status and full body, 200s included -- to be exactly what decodeRow
// and the route's scoring answer over the same bytes.
func TestRowRoutesDeclined(t *testing.T) {
	s, srv, _ := fullServer(t)
	names := s.models.View().Model.Features
	class := s.models.View().Model.Classes()[0]
	for _, route := range rowCases(s) {
		for _, tc := range singleRowDeclined(names[0], names[1], class) {
			body := []byte(tc.body)
			if route.scans(body) {
				t.Errorf("%s %s: the scanner accepted %q", route.path, tc.name, body)
			}
			sameReply(t, srv, route, tc.name, body)
		}
	}
}

// TestRowRoutesScanned posts bodies the scanner takes -- a route without
// a threshold declines the ones carrying one -- and requires the same
// replies as the encoding/json path.
func TestRowRoutesScanned(t *testing.T) {
	s, srv, _ := fullServer(t)
	names := s.models.View().Model.Features
	a, b := names[0], names[1]
	full, err := json.Marshal(map[string]any{"features": fullRow(names, 3), "threshold": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := json.Marshal(map[string]any{"features": fullRow(names, 4)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		body      string
		threshold bool
	}{
		{"bench-shaped", string(full), true},
		{"no threshold", string(bare), false},
		{"two features", `{"features":{"` + a + `":0.25,"` + b + `":3}}`, false},
		{"threshold first", `{"threshold":0.9,"features":{"` + b + `":3,"` + a + `":0.25}}`, true},
		{"whitespace", " \n{ \"features\" :\t{ \"" + a + "\" : 1.5e0 , \"" + b + "\" : -0 } , \"threshold\" : 1 }\r\n", true},
		{"number forms", `{"features":{"` + a + `":1E+2,"` + b + `":1e-400}}`, false},
	}
	for _, route := range rowCases(s) {
		for _, tc := range cases {
			body := []byte(tc.body)
			if want := route.hasThreshold || !tc.threshold; route.scans(body) != want {
				t.Errorf("%s %s: scanner accepts = %v, want %v", route.path, tc.name, !want, want)
			}
			sameReply(t, srv, route, tc.name, body)
		}
	}
}

// TestBatchRowsDeclined is TestBatchColumnsDeclined for the rows form:
// scanBatch declines every body shape here, and the live reply is
// exactly what decodeBatch and classifyBatch answer over the same bytes.
func TestBatchRowsDeclined(t *testing.T) {
	s, srv, _ := fullServer(t)
	v := s.models.View()
	a, b := v.Model.Features[0], v.Model.Features[1]
	row := `{"` + a + `":1,"` + b + `":2}`
	overCap := strings.Repeat(row+",", maxBatchRows) + row
	cases := []struct{ name, body string }{
		{"capitalized key", `{"Rows":[` + row + `],"threshold":0.5}`},
		{"escaped key", `{"r\u006fws":[` + row + `],"threshold":0.5}`},
		{"escaped feature", `{"rows":[{"` + escapeFirst(a) + `":1}],"threshold":0.5}`},
		{"duplicate feature", `{"rows":[{"` + a + `":1,"` + a + `":2}],"threshold":0.5}`},
		{"duplicate rows", `{"rows":[` + row + `],"rows":[` + row + `,` + row + `],"threshold":0.5}`},
		{"null value", `{"rows":[{"` + a + `":null}],"threshold":0.5}`},
		{"null row", `{"rows":[` + row + `,null],"threshold":0.5}`},
		{"null threshold", `{"rows":[` + row + `],"threshold":null}`},
		{"empty body object", `{}`},
		{"no rows", `{"rows":[],"threshold":0.5}`},
		{"empty row", `{"rows":[` + row + `,{}],"threshold":0.5}`},
		{"unknown feature", `{"rows":[{"BOGUS":1}],"threshold":0.5}`},
		{"row 3 unknown", `{"rows":[` + row + `,` + row + `,` + row + `,{"BOGUS":1}],"threshold":0.5}`},
		{"unknown top-level key", `{"rows":[` + row + `],"extra":1,"threshold":0.5}`},
		{"thresholds", `{"rows":[` + row + `],"thresholds":{"x":0.9},"threshold":0.5}`},
		{"threshold 2", `{"rows":[` + row + `],"threshold":2}`},
		{"out of range", `{"rows":[{"` + a + `":1e400}],"threshold":0.5}`},
		{"leading zero", `{"rows":[{"` + a + `":01}],"threshold":0.5}`},
		{"byte order mark", "\xef\xbb\xbf" + `{"rows":[` + row + `],"threshold":0.5}`},
		{"trailing comma", `{"rows":[` + row + `,],"threshold":0.5}`},
		{"truncated", `{"rows":[` + row + `,{"` + a + `":1`},
		{"over-cap rows", `{"rows":[` + overCap + `],"threshold":0.5}`},
		{"rows and columns", `{"rows":[` + row + `],"columns":{"` + a + `":[1]},"threshold":0.5}`},
		{"rows and empty columns", `{"rows":[` + row + `],"columns":{},"threshold":0.5}`},
	}
	batchDeclined(t, s, srv, cases)
}

// batchDeclined requires scanBatch to decline every case, and the live
// /api/classify/batch reply -- status and full body, 200s included -- to
// be exactly what decodeBatch and classifyBatch answer over the same
// bytes.
func batchDeclined(t *testing.T, s *Server, srv *httptest.Server, cases []struct{ name, body string }) {
	t.Helper()
	v := s.models.View()
	for _, tc := range cases {
		body := []byte(tc.body)
		if _, ok := scanBatch(v, body); ok {
			t.Errorf("%s: the scanner accepted %q", tc.name, body)
			continue
		}
		code, live := postRaw(t, srv.URL+"/api/classify/batch", body)
		rec := httptest.NewRecorder()
		if b, ok := s.decodeBatch(rec, v, body, nil); ok {
			s.classifyBatch(rec, httptest.NewRequest("POST", "/api/classify/batch", nil), v, b)
		}
		if code != rec.Code || !bytes.Equal(live, rec.Body.Bytes()) {
			t.Errorf("%s: served %d %s, encoding/json path %d %s", tc.name, code, live, rec.Code, rec.Body.Bytes())
		}
	}
}

// FuzzScanRow holds scanRow to its contract on a route with a threshold
// (/api/classify) and one without (/api/discover/assign): whenever the
// scanner accepts a body, decodeRow accepts it too and resolves a
// Float64bits-equal row, the same defaulted list and a Float64bits-equal
// threshold.
func FuzzScanRow(f *testing.F) {
	s, v := columnsView(f)
	names := v.Model.Features
	a, b := names[0], names[1]
	row := make(map[string]float64, len(names))
	for j, name := range names {
		row[name] = benchValue(1, j)
	}
	full, err := json.Marshal(map[string]any{"features": row, "threshold": 0.5})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(full),
		`{"features":{"` + a + `":-0,"` + b + `":1E+2}}`,
		` {"threshold":1, "features":{"` + b + `":1e-400 ,"` + a + `":0.5}} `,
	} {
		var req classifyRequest
		if _, _, ok := s.classify.scan(v, []byte(seed), &req); !ok {
			f.Fatalf("scanner declines %q", seed)
		}
		f.Add([]byte(seed))
	}
	for _, tc := range singleRowDeclined(a, b, "x") {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScan(t, &s.classify, body)
		checkScan(t, &s.assign, body)
	})
}

// checkScan is FuzzScanRow's check on one route.
func checkScan[M core.Servable, Q, R any](t *testing.T, p *rowRoute[M, Q, R], body []byte) {
	t.Helper()
	v := p.mgr.View()
	var got, want Q
	row, defaulted, ok := p.scan(v, body, &got)
	if !ok {
		return
	}
	wantRow, wantDefaulted, ok := p.decodeRow(httptest.NewRecorder(), v, body, nil, &want)
	if !ok {
		t.Fatalf("scanner accepted a body encoding/json refuses: %q", body)
	}
	for j := range wantRow {
		if math.Float64bits(row[j]) != math.Float64bits(wantRow[j]) {
			t.Fatalf("feature %d: %v, oracle %v", j, row[j], wantRow[j])
		}
	}
	if !slices.Equal(defaulted, wantDefaulted) {
		t.Fatalf("defaulted %v, oracle %v", defaulted, wantDefaulted)
	}
	if p.threshold != nil {
		if got, want := *p.threshold(&got), *p.threshold(&want); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("threshold %v, oracle %v", got, want)
		}
	}
}

// decodeBytes is the bytes a decode allocates on average over runs
// calls, after one warm-up call.
func decodeBytes(decode func()) uint64 {
	const runs = 5
	decode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		decode()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// readerRequest is a POST carrying body whose reader rewinds on every
// call to rewind, so a decode loop re-reads it without building a
// request each time.
func readerRequest(body []byte) (r *http.Request, rewind func()) {
	rd := bytes.NewReader(body)
	r = httptest.NewRequest("POST", "/", nil)
	r.Body = io.NopCloser(rd)
	r.ContentLength = int64(len(body))
	return r, func() { rd.Reset(body) }
}

// allocBudget is the most a decode that allocates only the body and
// rows bytes of rows may take: both grown by 1/16 for the allocator's
// size classes, page rounding and object headers, plus 256 bytes for
// the capped reader readBody wraps the request in.
func allocBudget(body, rows int) uint64 {
	return uint64((body+rows)*17/16 + 256)
}

// TestAllocScanRow pins what the single-row fast path allocates for a
// bench-shaped body of all 36 features: the body buffer, read once
// without regrowth, the F-wide row and the seen flags, and nothing for
// the empty defaulted list. Decoding through a map overshoots it.
func TestAllocScanRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation; the alloc gate runs without -race")
	}
	s, v := columnsView(t)
	f := v.NumFeatures()
	row := make(map[string]float64, f)
	for j, name := range v.Model.Features {
		row[name] = benchValue(2, j)
	}
	body, err := json.Marshal(map[string]any{"features": row, "threshold": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r, rewind := readerRequest(body)
	w := httptest.NewRecorder()
	var req classifyRequest
	got := decodeBytes(func() {
		rewind()
		read, err := readBody(w, r, maxClassifyBody)
		if err != nil {
			t.Fatal(err)
		}
		row, defaulted, ok := s.classify.scan(v, read, &req)
		if !ok || len(row) != f || len(defaulted) != 0 {
			t.Fatal("the scanner declined a bench-shaped body")
		}
	})
	if limit := allocBudget(len(body), f*8+f); got > limit {
		t.Errorf("decoding a %d-byte row allocates %d bytes, want <= %d", len(body), got, limit)
	}
}

// TestAllocBatchRowsDecode pins what the rows form's fast path
// allocates for a batch-rows-svm-shaped body, 256 rows of 36 features:
// the body buffer, the n x F rows with their row and defaulted slice
// headers, and the seen flags. Decoding through maps, or a rows buffer
// that regrows as rows arrive, each overshoot it.
func TestAllocBatchRowsDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation; the alloc gate runs without -race")
	}
	_, v := columnsView(t)
	const n = 256
	f := v.NumFeatures()
	body := benchRowsBody(v.Model.Features, n)
	r, rewind := readerRequest(body)
	w := httptest.NewRecorder()
	got := decodeBytes(func() {
		rewind()
		read, err := readBody(w, r, maxBatchBody)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := scanBatch(v, read); !ok || len(b.rows) != n {
			t.Fatal("the scanner declined a bench-shaped body")
		}
	})
	headers := 2 * 24 // a []float64 row and a []string defaulted list
	if limit := allocBudget(len(body), n*(f*8+headers)+f); got > limit {
		t.Errorf("decoding a %d-byte rows body allocates %d bytes, want <= %d", len(body), got, limit)
	}
}
