//go:build soak

// Ingest soak harness, run by `make soak-ingest` and the soak CI job:
// builds the real supremm-serve binary WITH the race detector, boots it
// with -ingest-addr and fault injection armed at every ingest site
// (connection errors, shard-apply errors, finalize latency), replays a
// seeded firehose against it, and then reconciles the conservation
// equation to the record: the clients' acked count, the server's
// /debug/ingest ledger, and the /metrics counters must agree exactly —
// received == summarized + Σ dropped{reason}, per shard and globally. A
// job whose epilog a fault dropped finalizes on the server's 30 s idle
// sweep, so the reconciliation waits that out. Finally the server is
// sent SIGTERM and must drain and exit 0 (it exits 1 if its own
// shutdown audit finds the books unbalanced).
//
// Tunables (env): SOAK_INGEST_DUR (default 10s), SOAK_INGEST_JOBS
// (default 48), SOAK_INGEST_CONNS (default 6), SOAK_INGEST_FAULTS
// (default arms all three sites), SOAK_INGEST_OUT (default
// <tmp>/soak-ingest-report.json; CI uploads it as an artifact).
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs/flight"
)

const defaultIngestFaults = "ingest.conn=error:0.01,ingest.shard=error:0.02,ingest.finalize=latency:0.3:5ms"

func TestSoakIngestConservation(t *testing.T) {
	dur, err := time.ParseDuration(soakEnv("SOAK_INGEST_DUR", "10s"))
	if err != nil {
		t.Fatalf("SOAK_INGEST_DUR: %v", err)
	}
	jobs := soakEnv("SOAK_INGEST_JOBS", "48")
	conns := soakEnv("SOAK_INGEST_CONNS", "6")
	faults := soakEnv("SOAK_INGEST_FAULTS", defaultIngestFaults)
	out := soakEnv("SOAK_INGEST_OUT", filepath.Join(t.TempDir(), "soak-ingest-report.json"))

	bin := buildServe(t, true)
	base, addr, srv := startServe(t, bin,
		"-jobs", "400",
		"-ingest-addr", "127.0.0.1:0",
		"-faults", faults,
		"-fault-seed", "42",
	)

	ctx, cancel := context.WithTimeout(context.Background(), dur+3*time.Minute)
	defer cancel()
	spec := fmt.Sprintf("url=%s,addr=%s,jobs=%s,conns=%s,hosts=3,wall=2500,dur=%s,seed=9", base, addr, jobs, conns, dur)
	cfg, err := loadgen.ParseIngestSpec(spec)
	if err != nil {
		t.Fatalf("soak spec %q: %v", spec, err)
	}
	t.Logf("soak-ingest: %s faults=%s", cfg.IngestSpec(), faults)
	rep, err := loadgen.RunIngest(ctx, cfg)
	if err != nil {
		t.Fatalf("firehose failed: %v", err)
	}

	// Exact reconciliation: quiesce, then join client acks, ledger, and
	// /metrics. The result rides on the report, which is persisted first
	// so the artifact carries the verdict even when the assertions below
	// fail.
	chk, err := loadgen.ReconcileIngest(ctx, cfg.BaseURL, rep)
	if err != nil {
		t.Errorf("reconciliation unavailable: %v", err)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("soak-ingest report: %s", out)
	t.Logf("soak-ingest: generated=%d acked=%d frames=%d reconnects=%d rate=%.0f rec/s",
		rep.RecordsGenerated, rep.RecordsAcked, rep.Frames, rep.Reconnects, rep.RecordsPerSec)

	// The client contract: every generated record was acknowledged,
	// surviving the injected connection faults via resume.
	if rep.RecordsAcked != rep.RecordsGenerated || rep.RecordsGenerated == 0 {
		t.Errorf("acked %d of %d generated records", rep.RecordsAcked, rep.RecordsGenerated)
	}

	// The conservation contract, to the record.
	if chk != nil {
		t.Logf("soak-ingest ledger: received=%d summarized=%d dropped=%v",
			chk.Ledger.Received, chk.Ledger.Summarized, chk.Ledger.Dropped)
		for _, m := range chk.Mismatches {
			t.Errorf("reconciliation: %s", m)
		}
		if chk.Ledger.Received != rep.RecordsAcked {
			t.Errorf("ledger received %d, clients were acked %d", chk.Ledger.Received, rep.RecordsAcked)
		}
		if strings.Contains(faults, "error") && chk.Ledger.DroppedSum == 0 {
			t.Logf("note: error faults armed but nothing dropped (small run?); the drop joins were vacuous")
		}
	}

	// The server survived the storm and still serves queries.
	resp, err := http.Get(base + "/api/overview")
	if err != nil {
		t.Fatalf("server unreachable after soak: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/api/overview after soak: status %d", resp.StatusCode)
	}

	// One recorder holds both paths: the finalized jobs are in the ring
	// under /ingest/finalize, and the SLO objectives, which count only
	// /api/classify, saw none of them.
	var slo flight.SLOStatus
	if err := getSoakJSON(base+"/debug/slo", &slo); err != nil {
		t.Fatal(err)
	}
	if slo.Availability == nil || slo.Availability.RunTotal != 0 {
		t.Errorf("/debug/slo availability = %+v, want armed with runTotal 0 after an ingest-only run", slo.Availability)
	}
	var finalized struct {
		Events []flight.Event `json:"events"`
	}
	if err := getSoakJSON(base+"/debug/requests?route=/ingest/finalize", &finalized); err != nil {
		t.Fatal(err)
	}
	if len(finalized.Events) == 0 {
		t.Error("/debug/requests?route=/ingest/finalize is empty: the ingest path records into another recorder")
	}

	// Graceful shutdown: SIGTERM → drain → the server's own audit. Exit
	// status 0 is the server agreeing its books balance.
	srv.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("server shutdown audit failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Error("server ignored SIGTERM; killing")
		srv.Process.Kill()
		<-done
	}
}

// getSoakJSON GETs url and decodes a 200 JSON reply into out.
func getSoakJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
