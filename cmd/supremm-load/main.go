// Command supremm-load is a seeded open-loop load generator for
// supremm-serve: it fires classification traffic (a configurable
// batch/single mix) at a target rate with an optional linear ramp,
// classifies every response against the serving status-code contract
// (200 OK / 429 shed / 504 deadline / 503 unavailable), and writes a
// JSON report with latency percentiles and shed/timeout counts. The
// soak CI job and `make soak` drive it against the real binary; it is
// equally usable for manual capacity runs.
//
// Usage:
//
//	supremm-load [-out report.json] [-reconcile] url=http://127.0.0.1:8080 rps=200 dur=30s
//	             [ramp=5s] [mix=0.25] [dmix=0.1] [rmix=0.1] [batch=64]
//	             [threshold=0.5] [seed=7] [timeout=10s] [inflight=512]
//
// The arguments are one load spec (see internal/loadgen.ParseSpec):
// k=v pairs separated by spaces or commas, so url=U,rps=200,dur=30s is
// the same run. url, rps and dur are required. The canonical spec is
// echoed on stderr and embedded in the report, so any run can be
// reproduced from its artifact.
//
// dmix and rmix route a fraction of arrivals to the discovery
// assignment (/api/discover/assign) and runtime-class
// (/api/runtime-class) endpoints; the target must have the matching
// model fitted or the run refuses to start.
//
// -reconcile cross-checks the run against the target's flight recorder
// (/debug/requests): the recorder's per-status classify counts must
// match the client's exactly, its ledger must balance, and every
// error-class response must be retrievable from the ring. The result is
// embedded in the report; mismatches are contract violations when the
// client saw every response (no client-side errors).
//
// Exit status: 0 when the run completed and the serving contract held
// (every 429 carried Retry-After; -reconcile found no drift), 1 on
// spec or target errors, 2 on contract violations or a flag the command
// does not have.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/loadgen"
)

func main() {
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	reconcile := flag.Bool("reconcile", false, "cross-check client-observed counts against the target's flight recorder after the run")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: supremm-load [-out FILE] [-reconcile] url=http://HOST:PORT rps=N dur=D [key=value ...]")
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg, err := loadgen.ParseSpec(strings.Join(flag.Args(), " "))
	if err != nil {
		fatal(1, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "supremm-load: %s\n", cfg.Spec())
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fatal(1, err)
	}
	if *reconcile {
		chk, err := loadgen.ReconcileRecorder(ctx, cfg.BaseURL, rep)
		if err != nil {
			fatal(1, err)
		}
		fmt.Fprintf(os.Stderr,
			"supremm-load: recorder ledger observed=%d kept=%d sampledOut=%d evicted=%d mismatches=%d\n",
			chk.Observed, chk.Kept, chk.SampledOut, chk.Evicted, len(chk.Mismatches))
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(1, err)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatal(1, err)
		}
		fmt.Fprintf(os.Stderr, "supremm-load: report written to %s\n", *out)
	} else {
		os.Stdout.Write(enc)
	}

	fmt.Fprintf(os.Stderr,
		"supremm-load: sent=%d ok=%d shed=%d timeouts=%d unavailable=%d serverErrors=%d clientErrors=%d dropped=%d p99=%.1fms\n",
		rep.Sent, rep.OK, rep.Shed, rep.Timeouts, rep.Unavailable,
		rep.ServerErrors, rep.ClientErrors, rep.Dropped, rep.LatencyMS.P99)
	if rep.ShedWithoutRetryAfter > 0 {
		fatal(2, fmt.Errorf("contract violation: %d shed responses missing Retry-After", rep.ShedWithoutRetryAfter))
	}
	if rep.Recorder != nil && rep.ClientErrors == 0 && len(rep.Recorder.Mismatches) > 0 {
		fatal(2, fmt.Errorf("recorder reconciliation failed: %s", strings.Join(rep.Recorder.Mismatches, "; ")))
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "supremm-load:", err)
	os.Exit(code)
}
