//go:build servesmoke

// End-to-end smoke for the serving path, run by `make serve-batch-smoke`
// (and the serve-smoke CI job): builds and boots the real supremm-serve
// binary, exercises single + batch classification, checks batch/single
// and columns/rows parity on live HTTP responses, hot-swaps the model
// through the admin endpoint and SIGHUP, and fails on any non-2xx or
// divergence. The
// server binds 127.0.0.1:0 and the harness learns the real port from
// the "serving api" log line, so parallel CI jobs cannot collide.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestServeBatchSmoke(t *testing.T) {
	bin := buildServe(t, false)

	// A lifecycle spec without -lifecycle must refuse to boot rather
	// than boot clean with no loop (the deadline reaps a server that
	// did boot, which then fails the message check).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var orphan bytes.Buffer
	bad := exec.CommandContext(ctx, bin, "-lifecycle-spec", "window=64")
	bad.Stderr = &orphan
	if err := bad.Run(); err == nil {
		t.Fatal("-lifecycle-spec without -lifecycle booted")
	}
	if msg := orphan.String(); !strings.Contains(msg, "-lifecycle-spec") || !strings.Contains(msg, "-lifecycle is not") {
		t.Fatalf("orphan -lifecycle-spec: stderr %q does not name both flags", msg)
	}

	snapshot := filepath.Join(t.TempDir(), "model.bin")
	// -log-level info: the address discovery in startServe reads the
	// info-level "serving api" line.
	base, _, srv := startServe(t, bin, "-jobs", "400", "-seed", "7",
		"-model-snapshot", snapshot, "-batch-workers", "4", "-log-level", "info")
	defer stopServe(t, srv)

	getJSON := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	post := func(path string, v any) (int, []byte) {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	var meta struct {
		Features   []string `json:"features"`
		Generation uint64   `json:"generation"`
	}
	getJSON("/api/features", &meta)
	if len(meta.Features) == 0 || meta.Generation != 1 {
		t.Fatalf("features meta = %+v", meta)
	}

	// Three distinct full-coverage rows.
	rows := make([]map[string]float64, 3)
	for i := range rows {
		m := map[string]float64{}
		for j, name := range meta.Features {
			m[name] = float64((i*5+j)%7) / 6
		}
		rows[i] = m
	}

	singles := make([][]byte, len(rows))
	for i, features := range rows {
		code, body := post("/api/classify", map[string]any{"features": features, "threshold": 0.5})
		if code != 200 {
			t.Fatalf("single classify %d: status %d: %s", i, code, body)
		}
		singles[i] = bytes.TrimSpace(body)
	}

	code, body := post("/api/classify/batch", map[string]any{"rows": rows, "threshold": 0.5})
	if code != 200 {
		t.Fatalf("batch classify: status %d: %s", code, body)
	}
	var batch struct {
		Results    []json.RawMessage `json:"results"`
		Generation uint64            `json:"generation"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(rows) || batch.Generation != 1 {
		t.Fatalf("batch reply: %d results, generation %d", len(batch.Results), batch.Generation)
	}
	for i, raw := range batch.Results {
		if !bytes.Equal(bytes.TrimSpace(raw), singles[i]) {
			t.Fatalf("batch/single parity divergence at row %d:\n batch:  %s\n single: %s", i, raw, singles[i])
		}
	}

	// The same rows in column form take the columns scanner and must
	// answer a results array byte-equal to the rows form's.
	cols := map[string][]float64{}
	for _, row := range rows {
		for name, x := range row {
			cols[name] = append(cols[name], x)
		}
	}
	code, colsBody := post("/api/classify/batch", map[string]any{"columns": cols, "threshold": 0.5})
	if code != 200 {
		t.Fatalf("columns batch classify: status %d: %s", code, colsBody)
	}
	var byRows, byCols struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &byRows); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(colsBody, &byCols); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(byCols.Results, byRows.Results) {
		t.Fatalf("columns/rows parity divergence:\n columns: %s\n rows:    %s", byCols.Results, byRows.Results)
	}

	// Admin hot-swap from the boot snapshot: the restored model must
	// classify byte-identically to the original.
	code, body = post("/admin/model/reload", map[string]string{"path": snapshot})
	if code != 200 {
		t.Fatalf("admin reload: status %d: %s", code, body)
	}
	getJSON("/api/features", &meta)
	if meta.Generation != 2 {
		t.Fatalf("post-reload generation = %d, want 2", meta.Generation)
	}
	code, body = post("/api/classify", map[string]any{"features": rows[0], "threshold": 0.5})
	if code != 200 || !bytes.Equal(bytes.TrimSpace(body), singles[0]) {
		t.Fatalf("reloaded snapshot diverges (status %d):\n before: %s\n after:  %s", code, singles[0], body)
	}

	// SIGHUP drives the same swap path from the configured snapshot.
	if err := srv.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for meta.Generation != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never landed (generation %d)", meta.Generation)
		}
		time.Sleep(100 * time.Millisecond)
		getJSON("/api/features", &meta)
	}

	// The swap and batch metrics made it to the exposition.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"model_generation 3",
		`model_swap_total{outcome="ok"} 3`,
		"classify_batch_rows_count 2",
		"classify_batch_rows_sum 6",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	fmt.Println("serve-batch-smoke: batch parity (rows and columns), admin reload, and SIGHUP swap all verified")
}
