//go:build soak

// Soak harness, run by `make soak` and the soak CI job: builds the real
// supremm-serve binary WITH the race detector, boots it with fault
// injection armed (per-row latency faults plus reload error faults),
// drives it with the seeded open-loop generator while SIGHUP reloads
// hammer the breaker, and then reconciles the client-observed outcome
// counts against the server's own /metrics counters. The JSON report
// lands where SOAK_OUT points (CI uploads it as an artifact).
//
// Tunables (env): SOAK_DUR (default 10s), SOAK_RPS (default 200),
// SOAK_OUT (default <tmp>/soak-report.json).
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/loadgen"
)

func soakEnv(name, def string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return def
}

func TestSoakServeUnderFaults(t *testing.T) {
	dur, err := time.ParseDuration(soakEnv("SOAK_DUR", "10s"))
	if err != nil {
		t.Fatalf("SOAK_DUR: %v", err)
	}
	rps := soakEnv("SOAK_RPS", "200")
	out := soakEnv("SOAK_OUT", filepath.Join(t.TempDir(), "soak-report.json"))

	bin := buildServe(t, true)
	snapshot := filepath.Join(t.TempDir(), "model.bin")
	base, _, srv := startServe(t, bin,
		"-jobs", "400", "-seed", "7",
		"-model-snapshot", snapshot,
		"-batch-workers", "2",
		"-request-timeout", "250ms",
		"-max-concurrent", "2", "-max-queue", "4",
		"-breaker-threshold", "3", "-breaker-open-for", "2s",
		"-faults", "classify.row=latency:1.0:10ms,reload=error:0.3",
		"-fault-seed", "42",
		// Lifecycle loop armed in manual mode: a SIGUSR1 below installs
		// a shadow challenger, so every classify row the soak drives is
		// also shadow-scored and the two shadow books must reconcile.
		"-lifecycle", "-lifecycle-spec", "algo=rf,auto=false,shadowmin=100000",
		// Flight recorder armed with a ring big enough that nothing is
		// evicted during the run, so the reconciliation below can demand
		// every error event be retrievable, not just counted.
		"-flight-capacity", "20000",
	)
	defer stopServe(t, srv)

	// Install a shadow challenger before the load starts: SIGUSR1 is
	// the operator's forced-retrain path (the trainer refits on the
	// warehouse window), and the loop must report the challenger ready
	// before shadow scoring can begin.
	srv.Process.Signal(syscall.SIGUSR1)
	waitChallenger(t, base)

	// SIGHUP storm in the background: reload error faults fail ~30% of
	// them, walking the breaker through open/half-open/closed while the
	// classify traffic runs. Reload failures must never disturb serving.
	hupDone := make(chan struct{})
	go func() {
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-hupDone:
				return
			case <-tick.C:
				srv.Process.Signal(syscall.SIGHUP)
			}
		}
	}()

	ramp := 2 * time.Second
	if ramp > dur {
		ramp = 0
	}
	spec := fmt.Sprintf("url=%s,rps=%s,dur=%s,ramp=%s,mix=0.2,batch=16,seed=9,timeout=5s,inflight=256",
		base, rps, dur, ramp)
	cfg, err := loadgen.ParseSpec(spec)
	if err != nil {
		t.Fatalf("soak spec %q: %v", spec, err)
	}
	t.Logf("soak: %s", cfg.Spec())
	rep, err := loadgen.Run(context.Background(), cfg)
	close(hupDone)
	if err != nil {
		t.Fatalf("load run failed: %v", err)
	}

	// Cross-check the flight recorder's ledger against the client's view
	// before persisting, so the report artifact carries the result. The
	// recorder counts per route and status independently of tail
	// sampling, so with zero client-side errors the join must be exact.
	chk, err := loadgen.ReconcileRecorder(context.Background(), base, rep)
	if err != nil {
		t.Errorf("recorder reconciliation unavailable: %v", err)
	}

	// Persist the artifact before asserting, so a failing soak still
	// leaves its evidence behind.
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("soak report: %s", out)
	t.Logf("soak: sent=%d ok=%d shed=%d timeouts=%d unavailable=%d serverErrors=%d dropped=%d p99=%.1fms",
		rep.Sent, rep.OK, rep.Shed, rep.Timeouts, rep.Unavailable, rep.ServerErrors, rep.Dropped, rep.LatencyMS.P99)

	// Invariants. The server must answer everything it was sent (never
	// hang or drop a connection), keep the shedding contract, and stay
	// free of 5xx: the only armed classify fault is latency, which can
	// shed or time requests out but never error them.
	if rep.OK == 0 {
		t.Error("soak completed zero successful classifications")
	}
	if rep.ClientErrors != 0 {
		t.Errorf("%d transport errors: the server hung or dropped connections", rep.ClientErrors)
	}
	if rep.ShedWithoutRetryAfter != 0 {
		t.Errorf("%d shed responses missing Retry-After", rep.ShedWithoutRetryAfter)
	}
	if rep.ServerErrors != 0 {
		t.Errorf("%d unexpected 5xx responses (latency faults must not produce errors)", rep.ServerErrors)
	}
	if rep.BadRequests != 0 {
		t.Errorf("%d 4xx responses to well-formed generated requests", rep.BadRequests)
	}
	if got := rep.Answered(); got != rep.Sent {
		t.Errorf("answered %d of %d sent requests", got, rep.Sent)
	}

	// The server survived and still serves ungoverned reads.
	resp, err := http.Get(base + "/api/features")
	if err != nil {
		t.Fatalf("server unreachable after soak: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/api/features after soak: status %d", resp.StatusCode)
	}

	// Reconcile the client's view against the server's counters: the
	// generator is the only traffic source, so the counts must agree
	// exactly.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	if got, want := metricSum(text, "http_shed_total"), float64(rep.Shed); got != want {
		t.Errorf("server http_shed_total = %v, client saw %v 429s", got, want)
	}
	if got, want := metricSum(text, "http_timeouts_total"), float64(rep.Timeouts); got != want {
		t.Errorf("server http_timeouts_total = %v, client saw %v 504s", got, want)
	}
	if !strings.Contains(text, "model_breaker_state") {
		t.Error("/metrics missing model_breaker_state")
	}
	if rep.Shed == 0 {
		t.Logf("note: this run shed nothing (rps below capacity?); the contract checks were vacuous")
	}

	// Flight-recorder reconciliation: ledger balanced, per-status counts
	// joined exactly against the client, every 429/504 retrievable.
	if chk != nil {
		t.Logf("soak recorder: observed=%d kept=%d sampledOut=%d evicted=%d",
			chk.Observed, chk.Kept, chk.SampledOut, chk.Evicted)
		for _, m := range chk.Mismatches {
			t.Errorf("recorder reconciliation: %s", m)
		}
		if chk.Evicted != 0 {
			t.Errorf("recorder evicted %d events; the soak ring (-flight-capacity 20000) should hold the whole run", chk.Evicted)
		}
		// Shadow reconciliation must have been exercised, not skipped:
		// the challenger was shadowing for the whole run, so rows were
		// scored, and the loop's ledger agreed with the recorder's
		// tallies (any disagreement is already in Mismatches above).
		if chk.Lifecycle == nil {
			t.Error("reconciliation found no lifecycle loop despite -lifecycle")
		} else if chk.Lifecycle.Scored == 0 {
			t.Error("no rows were shadow-scored during the soak; the shadow reconciliation was vacuous")
		} else {
			t.Logf("soak shadow: eligible=%d scored=%d agree=%d disagree=%d errors=%d",
				chk.Lifecycle.Eligible, chk.Lifecycle.Scored, chk.Lifecycle.Agree,
				chk.Lifecycle.Disagree, chk.Lifecycle.Errors)
		}
	}
}

// waitChallenger polls /api/lifecycle until the loop reports a shadow
// challenger installed (the SIGUSR1 retrain runs asynchronously).
func waitChallenger(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/api/lifecycle")
		if err != nil {
			t.Fatalf("GET /api/lifecycle: %v", err)
		}
		var st struct {
			ChallengerReady bool `json:"challengerReady"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && st.ChallengerReady {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("lifecycle challenger never became ready after SIGUSR1")
}
