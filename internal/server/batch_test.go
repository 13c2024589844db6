package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// featureNames fetches the serving model's feature layout.
func featureNames(t *testing.T, url string) []string {
	t.Helper()
	var meta struct {
		Features []string `json:"features"`
	}
	if code := getJSON(t, url+"/api/features", &meta); code != 200 {
		t.Fatalf("/api/features status %d", code)
	}
	if len(meta.Features) == 0 {
		t.Fatal("no features")
	}
	return meta.Features
}

// postJSON posts v and returns the status plus raw response body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

// parityRows builds n deterministic feature maps with varying coverage:
// row i carries a different value pattern, and every third row omits a
// feature so the defaulted field varies too.
func parityRows(names []string, n int) []map[string]float64 {
	rows := make([]map[string]float64, n)
	for i := range rows {
		m := make(map[string]float64, len(names))
		for j, name := range names {
			if i%3 == 2 && j == i%len(names) {
				continue // omitted -> defaulted to zero server-side
			}
			m[name] = float64((i*7+j*3)%11) / 10
		}
		rows[i] = m
	}
	return rows
}

type batchReply struct {
	Results []json.RawMessage `json:"results"`
	Summary struct {
		Rows           int            `json:"rows"`
		Classified     int            `json:"classified"`
		BelowThreshold int            `json:"belowThreshold"`
		ByLabel        map[string]int `json:"byLabel"`
	} `json:"summary"`
	Generation uint64 `json:"generation"`
}

// TestBatchParityWithSingle is the acceptance gate: a batch over N rows
// is byte-identical, row for row, to N single /api/classify calls, at
// batch worker counts 1 and 4.
func TestBatchParityWithSingle(t *testing.T) {
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		srv, _ := obsServer(t, WithBatchWorkers(workers))
		names := featureNames(t, srv.URL)
		rows := parityRows(names, 9)

		singles := make([][]byte, len(rows))
		for i, features := range rows {
			code, body := postJSON(t, srv.URL+"/api/classify",
				map[string]any{"features": features, "threshold": 0.6})
			if code != 200 {
				t.Fatalf("single classify row %d: status %d: %s", i, code, body)
			}
			singles[i] = bytes.TrimSpace(body)
		}

		code, body := postJSON(t, srv.URL+"/api/classify/batch",
			map[string]any{"rows": rows, "threshold": 0.6})
		if code != 200 {
			t.Fatalf("batch (workers=%d): status %d: %s", workers, code, body)
		}
		var reply batchReply
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatal(err)
		}
		if len(reply.Results) != len(rows) {
			t.Fatalf("batch returned %d results for %d rows", len(reply.Results), len(rows))
		}
		for i, raw := range reply.Results {
			if !bytes.Equal(bytes.TrimSpace(raw), singles[i]) {
				t.Errorf("workers=%d row %d diverges:\n batch:  %s\n single: %s",
					workers, i, raw, singles[i])
			}
		}
		if reply.Generation != 1 {
			t.Errorf("generation = %d, want 1", reply.Generation)
		}
		bodies = append(bodies, body)
	}
	// The same batch at worker counts 1 and 4 is byte-identical end to
	// end (identical servers are seeded identically).
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("batch response differs between 1 and 4 workers")
	}
}

// TestBatchColumnMajorParity feeds the same batch in both wire forms and
// expects identical per-row results.
func TestBatchColumnMajorParity(t *testing.T) {
	srv, _ := obsServer(t)
	names := featureNames(t, srv.URL)
	const n = 6
	cols := make(map[string][]float64, len(names))
	rows := make([]map[string]float64, n)
	for i := range rows {
		rows[i] = map[string]float64{}
	}
	for j, name := range names {
		col := make([]float64, n)
		for i := range col {
			col[i] = float64((i*5+j)%7) / 6
			rows[i][name] = col[i]
		}
		cols[name] = col
	}

	codeR, bodyR := postJSON(t, srv.URL+"/api/classify/batch", map[string]any{"rows": rows, "threshold": 0.5})
	codeC, bodyC := postJSON(t, srv.URL+"/api/classify/batch", map[string]any{"columns": cols, "threshold": 0.5})
	if codeR != 200 || codeC != 200 {
		t.Fatalf("statuses %d / %d", codeR, codeC)
	}
	if !bytes.Equal(bodyR, bodyC) {
		t.Errorf("row-major and column-major responses differ:\n%s\n%s", bodyR, bodyC)
	}
}

func TestBatchSummaryAndMetrics(t *testing.T) {
	srv, reg := obsServer(t)
	names := featureNames(t, srv.URL)
	rows := parityRows(names, 5)
	code, body := postJSON(t, srv.URL+"/api/classify/batch", map[string]any{"rows": rows, "threshold": 0})
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var reply batchReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	// Threshold 0 classifies every row.
	if reply.Summary.Rows != 5 || reply.Summary.Classified != 5 || reply.Summary.BelowThreshold != 0 {
		t.Errorf("summary = %+v", reply.Summary)
	}
	total := 0
	for _, n := range reply.Summary.ByLabel {
		total += n
	}
	if total != 5 {
		t.Errorf("byLabel sums to %d, want 5", total)
	}

	if h := reg.Histogram("classify_batch_rows", nil); h.Count() != 1 || h.Sum() != 5 {
		t.Errorf("classify_batch_rows count=%d sum=%v, want 1/5", h.Count(), h.Sum())
	}
	if h := reg.Histogram("classify_row_seconds", nil); h.Count() != 5 {
		t.Errorf("classify_row_seconds count=%d, want 5", h.Count())
	}
	if got := reg.Counter("classify_outcomes_total", "outcome", "classified").Value(); got != 5 {
		t.Errorf("classified counter = %d, want 5 (one per batch row)", got)
	}
}

func TestBatchValidation(t *testing.T) {
	srv, reg := obsServer(t)
	names := featureNames(t, srv.URL)
	post := func(body string) (int, string) {
		resp, err := http.Post(srv.URL+"/api/classify/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var payload map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&payload)
		msg, _ := payload["error"].(string)
		return resp.StatusCode, msg
	}

	cases := []struct {
		name, body, wantMsg string
	}{
		{"garbage", "not json", "bad request body"},
		{"neither form", `{"threshold":0.5}`, "empty batch"},
		{"both forms", fmt.Sprintf(`{"rows":[{"%s":1}],"columns":{"%s":[1]},"threshold":0.5}`, names[0], names[0]), "both rows and columns"},
		{"bad threshold", fmt.Sprintf(`{"rows":[{"%s":1}],"threshold":2}`, names[0]), "threshold"},
		{"empty row", fmt.Sprintf(`{"rows":[{"%s":1},{}],"threshold":0.5}`, names[0]), "row 1"},
		{"unknown row feature", `{"rows":[{"BOGUS":1}],"threshold":0.5}`, "unknown features"},
		{"unknown column", `{"columns":{"BOGUS":[1,2]},"threshold":0.5}`, "unknown features"},
		{"ragged columns", fmt.Sprintf(`{"columns":{"%s":[1,2],"%s":[1]},"threshold":0.5}`, names[0], names[1]), "values"},
		{"empty columns", fmt.Sprintf(`{"columns":{"%s":[]},"threshold":0.5}`, names[0]), "no rows"},
	}
	for _, tc := range cases {
		status, msg := post(tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
		if !strings.Contains(msg, tc.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, msg, tc.wantMsg)
		}
	}
	if got := reg.Counter("classify_outcomes_total", "outcome", "bad_request").Value(); got != uint64(len(cases)) {
		t.Errorf("bad_request counter = %d, want %d", got, len(cases))
	}

	// Over the row cap: 400 before any inference happens.
	var sb strings.Builder
	sb.WriteString(`{"rows":[`)
	for i := 0; i <= maxBatchRows; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"%s":1}`, names[0])
	}
	sb.WriteString(`],"threshold":0.5}`)
	if status, msg := post(sb.String()); status != http.StatusBadRequest || !strings.Contains(msg, "limit") {
		t.Errorf("over-cap batch: status %d msg %q", status, msg)
	}
	// Over the cap in column-major form: refused before the rows x
	// features buffer is materialised. One ~8 MB column of 4M zeros would
	// be a 4M x F x 8 B (gigabyte) allocation if the cap were checked
	// after resolveColumns built it; decoding the column itself is ~32 MB.
	const hostileRows = 4 << 20
	hostile := fmt.Sprintf(`{"columns":{"%s":[%s0]},"threshold":0.5}`, names[0], strings.Repeat("0,", hostileRows-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status, msg := post(hostile)
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest || !strings.Contains(msg, "limit") {
		t.Errorf("over-cap columns: status %d msg %q", status, msg)
	}
	if grown, full := after.TotalAlloc-before.TotalAlloc, uint64(hostileRows)*uint64(len(names))*8; grown > full/4 {
		t.Errorf("over-cap columns allocated %d MB; the %d MB rows x features buffer must never be built",
			grown>>20, full>>20)
	}
	if got := reg.Histogram("classify_row_seconds", nil).Count(); got != 0 {
		t.Errorf("rejected batches ran %d rows of inference", got)
	}
}

// TestBatchRaggedColumnsMessageStable pins the ragged-columns refusal
// to the request body: six columns of six different lengths leave a
// map-order walk free to name any of them, so the same body posted
// repeatedly must yield one message.
func TestBatchRaggedColumnsMessageStable(t *testing.T) {
	srv, _ := obsServer(t)
	names := featureNames(t, srv.URL)
	cols := map[string][]float64{}
	for i, name := range names[:6] {
		cols[name] = make([]float64, i+1)
	}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		code, body := postJSON(t, srv.URL+"/api/classify/batch", map[string]any{"columns": cols, "threshold": 0.5})
		if code != http.StatusBadRequest {
			t.Fatalf("post %d: status %d, want 400", i, code)
		}
		seen[string(body)] = true
	}
	if len(seen) != 1 {
		t.Errorf("one ragged body drew %d distinct refusals: %v", len(seen), seen)
	}
}

func TestBatchNoModel(t *testing.T) {
	srv, _ := emptyStoreServer(t)
	code, _ := postJSON(t, srv.URL+"/api/classify/batch", map[string]any{"rows": []map[string]float64{{"X": 1}}})
	if code != http.StatusServiceUnavailable {
		t.Errorf("batch without model -> %d, want 503", code)
	}
}

// TestBatchBlocksMatchSingle: on a compiled SVM, a batch scores its
// rows compile.BlockRows at a time through the row-blocked kernel and
// the remainder row by row. At batch sizes below, at and around the
// block, every element is byte-identical to /api/classify for its row.
func TestBatchBlocksMatchSingle(t *testing.T) {
	srv := httptest.NewServer(New(nil, paperSVM(t), 0, WithBatchWorkers(2)))
	t.Cleanup(srv.Close)
	names := featureNames(t, srv.URL)
	rows := parityRows(names, 7)
	singles := make([][]byte, len(rows))
	for i, features := range rows {
		code, body := postJSON(t, srv.URL+"/api/classify", map[string]any{"features": features, "threshold": 0.4})
		if code != 200 {
			t.Fatalf("single classify row %d: status %d: %s", i, code, body)
		}
		singles[i] = bytes.TrimSpace(body)
	}
	for _, n := range []int{1, 3, 4, 5, 7} {
		code, body := postJSON(t, srv.URL+"/api/classify/batch", map[string]any{"rows": rows[:n], "threshold": 0.4})
		if code != 200 {
			t.Fatalf("batch of %d: status %d: %s", n, code, body)
		}
		var reply batchReply
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatal(err)
		}
		if len(reply.Results) != n {
			t.Fatalf("batch of %d returned %d results", n, len(reply.Results))
		}
		for i, raw := range reply.Results {
			if !bytes.Equal(bytes.TrimSpace(raw), singles[i]) {
				t.Errorf("batch of %d, row %d diverges:\n batch:  %s\n single: %s", n, i, raw, singles[i])
			}
		}
	}
}

// TestBatchFailingRowInSecondBlock: two workers score a batch's two
// blocks side by side. The second block's row 5 overflows the NB
// model's likelihoods while the first block is still in its rows' fault
// site (a 40 ms latency fault per row). The pool cancels the first
// block, which stops with context.Canceled at a lower task index; the
// reply is still the real error -- a 400 naming row 5 -- never a 504.
func TestBatchFailingRowInSecondBlock(t *testing.T) {
	faults := resilience.NewFaults(1)
	if err := faults.Set(FaultClassifyRow, resilience.FaultSpec{
		Kind: resilience.FaultLatency, Rate: 1, Latency: 40 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	nb := categoryModel(t, 91, 200, "nb", core.ClassifierConfig{Algo: core.AlgoBayes})
	srv := httptest.NewServer(New(nil, nb, 0, WithMetrics(reg), WithBatchWorkers(2), WithFaults(faults)))
	t.Cleanup(srv.Close)
	names := featureNames(t, srv.URL)
	rows := parityRows(names, 6)
	rows[5][names[2]] = 1e308

	code, body := postJSON(t, srv.URL+"/api/classify/batch", map[string]any{"rows": rows, "threshold": 0.1})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "row 5: features out of range") {
		t.Fatalf("status %d (%s), want 400 naming row 5", code, body)
	}
	if got := reg.Counter("http_timeouts_total", "stage", "handler").Value(); got != 0 {
		t.Errorf("http_timeouts_total{stage=handler} = %d, want 0", got)
	}
}
