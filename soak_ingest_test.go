//go:build soak

// Ingest soak harness, run by `make soak-ingest` and the soak CI job:
// builds the real supremm-ingestd binary WITH the race detector, boots
// it with fault injection armed at every ingest site (connection
// errors, shard-apply errors, finalize latency), replays a seeded
// firehose against it, and then reconciles the conservation equation to
// the record: the clients' acked count, the daemon's /debug/ingest
// ledger, and the /metrics counters must agree exactly —
// received == summarized + Σ dropped{reason}, per shard and globally.
// Finally the daemon is sent SIGTERM and must drain and exit 0 (it
// exits 1 if its own shutdown audit finds the books unbalanced).
//
// Tunables (env): SOAK_INGEST_DUR (default 10s), SOAK_INGEST_JOBS
// (default 48), SOAK_INGEST_CONNS (default 6), SOAK_INGEST_FAULTS
// (default arms all three sites), SOAK_INGEST_OUT (default
// <tmp>/soak-ingest-report.json; CI uploads it as an artifact).
package repro

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/loadgen"
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

	bin := buildIngestd(t)
	addr, base, srv := startIngestd(t, bin,
		"-shards", "8",
		"-queue-depth", "256",
		"-idle-timeout", "2s",
		"-faults", faults,
		"-fault-seed", "42",
	)

	ctx, cancel := context.WithTimeout(context.Background(), dur+3*time.Minute)
	defer cancel()
	spec := fmt.Sprintf("addr=%s,jobs=%s,conns=%s,hosts=3,wall=2500,chunk=4,dur=%s,seed=9", addr, jobs, conns, dur)
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
	// /metrics. Attach the result to the report before persisting so the
	// artifact carries the verdict even when the assertions below fail.
	chk, err := loadgen.ReconcileIngest(ctx, base, rep)
	if err != nil {
		t.Errorf("reconciliation unavailable: %v", err)
	}
	rep.Reconcile = chk

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

	// The daemon survived the storm and still serves queries.
	resp, err := http.Get(base + "/api/warehouse/totals")
	if err != nil {
		t.Fatalf("daemon unreachable after soak: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/api/warehouse/totals after soak: status %d", resp.StatusCode)
	}

	// The SLO objectives count the serving path only; this daemon declares
	// none, and says so rather than reporting an armed, forever-empty one.
	resp, err = http.Get(base + "/debug/slo")
	if err != nil {
		t.Fatalf("/debug/slo: %v", err)
	}
	slo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(slo)); resp.StatusCode != 200 || got != `{"enabled":false}` {
		t.Errorf("/debug/slo = %d %s, want 200 {\"enabled\":false}", resp.StatusCode, got)
	}

	// Graceful shutdown: SIGTERM → drain → the daemon's own audit. Exit
	// status 0 is the daemon agreeing its books balance.
	srv.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon shutdown audit failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Error("daemon ignored SIGTERM; killing")
		srv.Process.Kill()
		<-done
	}
}

// buildIngestd compiles cmd/supremm-ingestd with the race detector into
// the test's temp dir.
func buildIngestd(t *testing.T) string {
	t.Helper()
	bin := t.TempDir() + "/supremm-ingestd"
	build := exec.Command("go", "build", "-race", "-o", bin, "./cmd/supremm-ingestd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building supremm-ingestd: %v", err)
	}
	return bin
}

// startIngestd boots the daemon on ephemeral ports and learns both
// listen addresses from its "serving ingest" log line (the listeners
// are bound before the line is logged). Returns the TCP ingest address
// and the HTTP base URL.
func startIngestd(t *testing.T, bin string, args ...string) (string, string, *exec.Cmd) {
	t.Helper()
	srv := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)...)
	srv.Stdout = os.Stderr
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	type addrs struct{ tcp, http string }
	addrCh := make(chan addrs, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			if strings.Contains(line, `msg="serving ingest"`) {
				var a addrs
				for _, tok := range strings.Fields(line) {
					if v, ok := strings.CutPrefix(tok, "addr="); ok {
						a.tcp = v
					}
					if v, ok := strings.CutPrefix(tok, "http="); ok {
						a.http = v
					}
				}
				if a.tcp != "" && a.http != "" {
					select {
					case addrCh <- a:
					default:
					}
				}
			}
		}
	}()

	select {
	case a := <-addrCh:
		return a.tcp, "http://" + a.http, srv
	case <-time.After(120 * time.Second):
		srv.Process.Kill()
		t.Fatal("daemon never logged its serving addresses")
		return "", "", nil
	}
}
