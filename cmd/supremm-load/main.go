// Command supremm-load is a seeded open-loop load generator for
// supremm-serve's two wires; the spec picks the wire. Without addr= it
// fires classification traffic over HTTP (a batch/single mix, optional
// linear ramp) and classifies every response against the serving
// status-code contract (200 OK / 429 shed / 504 deadline / 503
// unavailable). With addr= it replays a seeded firehose (the batch
// pipeline's cluster generator, its timeline compressed into dur) at the
// ingest wire of supremm-serve -ingest-addr. The soak harnesses drive
// the same engine, internal/loadgen.
//
// Usage:
//
//	supremm-load [-out report.json] [-reconcile] url=http://127.0.0.1:8080 rps=200 dur=30s
//	             [ramp=5s] [mix=0.25] [dmix=0.1] [batch=64]
//	             [threshold=0.5] [seed=7] [timeout=10s] [inflight=512]
//	supremm-load [-out report.json] [-reconcile] url=http://127.0.0.1:8080 addr=127.0.0.1:9301
//	             [jobs=32] [conns=4] [hosts=4] [wall=4000] [dur=2s] [seed=0]
//
// The arguments are one spec (loadgen.ParseSpec or ParseIngestSpec):
// k=v pairs separated by spaces or commas. url is the supremm-serve HTTP
// root on both wires. The canonical spec is echoed on stderr and leads
// the report, so any run reproduces from its artifact. The run's
// deadline is dur plus two minutes. dmix sends a fraction of HTTP
// arrivals to /api/discover/assign; the target must have a discovery
// fit loaded or the run refuses to start.
//
// -reconcile joins the run against the server at url afterwards: on the
// HTTP wire the flight recorder's ledger must balance and, when the
// client saw every response, match the client's per-status counts with
// every error response retrievable from the ring; on the ingest wire the
// client's acks, the /debug/ingest ledger and /metrics must agree to the
// record.
//
// The JSON report (loadgen.Report or loadgen.IngestReport) goes to -out,
// or to stdout, before the exit status is decided: 0 when the run
// completed and the contract held, 1 on spec, target or run errors, 2 on
// a contract violation (a 429 without Retry-After, a reconciliation
// mismatch) or a flag the command does not have.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

// runSlack is how far past the spec's dur a run (and its
// reconciliation) may go before its context expires.
const runSlack = 2 * time.Minute

// ingestWire matches a spec that names an ingest address.
var ingestWire = regexp.MustCompile(`(^|[\s,])addr=`)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("supremm-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	reconcile := fs.Bool("reconcile", false, "after the run, join it against the server at url=")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: supremm-load [-out FILE] [-reconcile] url=http://HOST:PORT {rps=N dur=D | addr=HOST:PORT} [key=value ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "supremm-load:", err)
		return code
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	spec := strings.Join(fs.Args(), " ")
	load := loadHTTP
	if ingestWire.MatchString(spec) {
		load = loadIngest
	}
	rep, violations, err := load(ctx, spec, *reconcile, stderr)
	if rep == nil {
		return fail(1, err)
	}

	enc, merr := json.MarshalIndent(rep, "", "  ")
	if merr != nil {
		return fail(1, merr)
	}
	enc = append(enc, '\n')
	if *out == "" {
		stdout.Write(enc)
	} else if werr := os.WriteFile(*out, enc, 0o644); werr != nil {
		return fail(1, werr)
	} else {
		fmt.Fprintf(stderr, "supremm-load: report written to %s\n", *out)
	}

	if err != nil {
		return fail(1, err)
	}
	for _, v := range violations {
		fmt.Fprintln(stderr, "supremm-load: contract violation:", v)
	}
	if len(violations) > 0 {
		return 2
	}
	return 0
}

// loadHTTP runs an HTTP load spec. It returns the report (nil when there
// is none to write), the contract violations, and the error that
// failed the run; a report comes back beside a reconciliation error.
func loadHTTP(ctx context.Context, spec string, reconcile bool, stderr io.Writer) (any, []string, error) {
	cfg, err := loadgen.ParseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "supremm-load: %s\n", cfg.Spec())
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration+runSlack)
	defer cancel()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr,
		"supremm-load: sent=%d ok=%d shed=%d timeouts=%d unavailable=%d serverErrors=%d clientErrors=%d dropped=%d p99=%.1fms\n",
		rep.Sent, rep.OK, rep.Shed, rep.Timeouts, rep.Unavailable,
		rep.ServerErrors, rep.ClientErrors, rep.Dropped, rep.LatencyMS.P99)
	var violations []string
	if rep.ShedWithoutRetryAfter > 0 {
		violations = append(violations, fmt.Sprintf("%d shed responses missing Retry-After", rep.ShedWithoutRetryAfter))
	}
	if reconcile {
		chk, err := loadgen.ReconcileRecorder(ctx, cfg.BaseURL, rep)
		if err != nil {
			return rep, violations, err
		}
		fmt.Fprintf(stderr,
			"supremm-load: recorder ledger observed=%d kept=%d sampledOut=%d evicted=%d mismatches=%d\n",
			chk.Observed, chk.Kept, chk.SampledOut, chk.Evicted, len(chk.Mismatches))
		if chk.Skipped != "" {
			fmt.Fprintln(stderr, "supremm-load: recorder: skipped", chk.Skipped)
		}
		for _, m := range chk.Mismatches {
			violations = append(violations, "recorder: "+m)
		}
	}
	return rep, violations, nil
}

// loadIngest runs an ingest firehose spec, returning what loadHTTP does.
// A run whose acks fall short still reports (and reconciles).
func loadIngest(ctx context.Context, spec string, reconcile bool, stderr io.Writer) (any, []string, error) {
	cfg, err := loadgen.ParseIngestSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "supremm-load: %s\n", cfg.IngestSpec())
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration+runSlack)
	defer cancel()
	rep, runErr := loadgen.RunIngest(ctx, cfg)
	if rep == nil {
		return nil, nil, runErr
	}
	var violations []string
	if reconcile {
		chk, err := loadgen.ReconcileIngest(ctx, cfg.BaseURL, rep)
		if err != nil {
			return rep, nil, errors.Join(runErr, err)
		}
		for _, m := range chk.Mismatches {
			violations = append(violations, "ingest: "+m)
		}
	}
	return rep, violations, runErr
}
