// Command supremm-ingestload replays a seeded firehose against the
// ingest address of a running supremm-serve -ingest-addr and, when given
// the server's HTTP address, reconciles the run to the record: the
// client-side acked count, the server's conservation ledger
// (/debug/ingest), and the /metrics counters must agree exactly.
//
// Usage:
//
//	supremm-ingestload [-http http://127.0.0.1:8080] [-out report.json] [-timeout 2m]
//	                   addr=127.0.0.1:9301 [jobs=32] [conns=4] [hosts=4]
//	                   [wall=4000] [dur=2s] [chunk=4] [seed=0]
//
// The arguments are one ingest load spec (see
// internal/loadgen.ParseIngestSpec): k=v pairs separated by spaces or
// commas, so addr=A,jobs=64,dur=10s is the same run. addr is required;
// one seed reproduces the exact frame sequence.
//
// The JSON report is printed to stdout (and to -out when given). Exit
// status: 0 when the run completed and every reconciliation join is
// exact, 2 when the run completed but the books do not balance (or on a
// flag the command does not have), 1 on any other failure.
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
	"time"

	"repro/internal/loadgen"
)

func main() {
	httpBase := flag.String("http", "", "supremm-serve API base URL, e.g. http://127.0.0.1:8080; enables exact reconciliation")
	out := flag.String("out", "", "also write the JSON report to this file")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall run deadline")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: supremm-ingestload [-http URL] [-out FILE] [-timeout D] addr=HOST:PORT [key=value ...]")
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg, err := loadgen.ParseIngestSpec(strings.Join(flag.Args(), " "))
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	rep, runErr := loadgen.RunIngest(ctx, cfg)
	if rep == nil {
		fatal(runErr)
	}
	if *httpBase != "" {
		chk, err := loadgen.ReconcileIngest(ctx, *httpBase, rep)
		if err != nil {
			emit(rep, *out)
			fatal(err)
		}
		rep.Reconcile = chk
	}
	emit(rep, *out)

	switch {
	case runErr != nil:
		fatal(runErr)
	case rep.Reconcile != nil && len(rep.Reconcile.Mismatches) > 0:
		fmt.Fprintln(os.Stderr, "supremm-ingestload: reconciliation mismatches:")
		for _, m := range rep.Reconcile.Mismatches {
			fmt.Fprintln(os.Stderr, "  -", m)
		}
		os.Exit(2)
	}
}

// emit writes the report to stdout and optionally to a file.
func emit(rep *loadgen.IngestReport, out string) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "supremm-ingestload:", err)
	os.Exit(1)
}
