package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/warehouse"
)

// stubServe answers the schema GET and the classify POST the HTTP wire
// drives; classify runs the given handler. Extra routes go on mux.
func stubServe(t *testing.T, classify http.HandlerFunc, extra func(mux *http.ServeMux)) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/features", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"features": []string{"A", "B"}})
	})
	mux.HandleFunc("POST /api/classify", classify)
	if extra != nil {
		extra(mux)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func answerOK(w http.ResponseWriter, _ *http.Request) {
	json.NewEncoder(w).Encode(map[string]any{"label": "ok"})
}

// runCmd runs the command and returns its exit code, stdout and stderr.
func runCmd(t *testing.T, args ...string) (int, []byte, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.Bytes(), stderr.String()
}

func TestHTTPWire(t *testing.T) {
	srv := stubServe(t, answerOK, nil)
	code, out, stderr := runCmd(t, "url="+srv.URL, "rps=50", "dur=200ms", "seed=3")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("stdout is not a load report: %v\n%s", err, out)
	}
	if rep.Sent == 0 || rep.OK != rep.Sent || !strings.Contains(rep.Spec, "url="+srv.URL) {
		t.Fatalf("report sent=%d ok=%d spec=%q", rep.Sent, rep.OK, rep.Spec)
	}
}

// A reconciliation that cannot reach the recorder fails the run, but
// the report is written first: to -out, or to stdout without it.
func TestReconcileFailureKeepsReport(t *testing.T) {
	srv := stubServe(t, answerOK, nil) // no /debug/requests: 404
	spec := []string{"url=" + srv.URL, "rps=50", "dur=100ms"}

	code, out, stderr := runCmd(t, append([]string{"-reconcile"}, spec...)...)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out, &rep); err != nil || rep.Sent == 0 {
		t.Fatalf("stdout lost the report (err %v):\n%s", err, out)
	}

	path := filepath.Join(t.TempDir(), "report.json")
	code, out, stderr = runCmd(t, append([]string{"-reconcile", "-out", path}, spec...)...)
	if code != 1 || len(out) != 0 {
		t.Fatalf("exit %d with %d stdout bytes, want 1 and none; stderr:\n%s", code, len(out), stderr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-out lost the report: %v", err)
	}
	if err := json.Unmarshal(b, &rep); err != nil || rep.Sent == 0 {
		t.Fatalf("-out holds no report (err %v):\n%s", err, b)
	}
}

// An unbalanced recorder ledger is a server-side fault: it fails the
// run even when transport errors rule out the client-side joins.
func TestUnbalancedLedgerFailsDespiteClientErrors(t *testing.T) {
	abort := func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }
	srv := stubServe(t, abort, func(mux *http.ServeMux) {
		mux.HandleFunc("GET /debug/requests", func(w http.ResponseWriter, _ *http.Request) {
			st := flight.Stats{Observed: 9, Kept: 2, SampledOut: 3, Live: 2}
			json.NewEncoder(w).Encode(map[string]any{"stats": st, "matched": 0})
		})
	})
	code, out, stderr := runCmd(t, "-reconcile", "url="+srv.URL, "rps=50", "dur=100ms")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ClientErrors == 0 {
		t.Fatal("stub produced no client-side errors; the test proves nothing")
	}
	chk := rep.Recorder
	if chk == nil || len(chk.Mismatches) != 1 || !strings.Contains(chk.Mismatches[0], "observed 9 != kept 2 + sampledOut 3") {
		t.Fatalf("recorder check %+v, want exactly the ledger mismatch", chk)
	}
	if chk.Skipped == "" {
		t.Fatal("the skipped client-side joins are not noted")
	}
}

// ingestServe starts an in-process ingest server and an HTTP mux with
// its ledger and metrics, and returns the HTTP root and the ingest
// address.
func ingestServe(t *testing.T) (base, addr string) {
	t.Helper()
	reg := obs.NewRegistry()
	srv, err := ingest.NewServer(ingest.Config{Shards: 2, Sink: warehouse.NewSharded(warehouse.ShardedConfig{}), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/ingest", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(srv.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) { reg.WritePrometheus(w) })
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs.URL, ln.Addr().String()
}

func TestIngestWireReconciles(t *testing.T) {
	base, addr := ingestServe(t)
	code, out, stderr := runCmd(t, "-reconcile", "url="+base, "addr="+addr, "jobs=4", "conns=2", "hosts=2", "wall=1500", "dur=100ms", "seed=11")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	var rep loadgen.IngestReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("stdout is not an ingest report: %v\n%s", err, out)
	}
	if rep.RecordsGenerated == 0 || rep.RecordsAcked != rep.RecordsGenerated {
		t.Fatalf("acked %d of %d generated", rep.RecordsAcked, rep.RecordsGenerated)
	}
	if rep.Reconcile == nil || len(rep.Reconcile.Mismatches) != 0 || rep.Reconcile.Ledger.Received != rep.RecordsAcked {
		t.Fatalf("reconcile = %+v, want an exact join", rep.Reconcile)
	}
}

func TestSpecAndFlagErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"ingest spec without url", []string{"addr=127.0.0.1:1", "jobs=1"}, 1},
		{"ingest spec with an HTTP-only key", []string{"url=http://127.0.0.1:1", "addr=127.0.0.1:1", "rps=5"}, 1},
		{"empty spec", nil, 1},
		{"-http is gone", []string{"-http", "http://127.0.0.1:1", "addr=127.0.0.1:1"}, 2},
		{"-timeout is gone", []string{"-timeout", "1m", "url=http://127.0.0.1:1", "rps=1", "dur=1s"}, 2},
	} {
		if code, _, stderr := runCmd(t, c.args...); code != c.want {
			t.Errorf("%s: exit %d, want %d; stderr:\n%s", c.name, code, c.want, stderr)
		}
	}
}
