// Command supremm-ingestd is the streaming ingest daemon: compute nodes
// ship TACC_Stats records as length-framed chunks over TCP, a router
// hashes each job to a shard, per-shard summarizers finalize jobs on
// epilog (or idle timeout), and finalized summaries land in a
// concurrent sharded warehouse with time-bucketed rollups.
//
// Usage:
//
//	supremm-ingestd [-listen 127.0.0.1:9301] [-http 127.0.0.1:9302]
//	                [-shards N] [-queue-depth N] [-idle-timeout 30s]
//	                [-faults SPEC] [-fault-seed N]
//	                [-log-level debug|info|warn|error]
//
// Endpoints (on -http):
//
//	GET /metrics          Prometheus text exposition
//	GET /healthz          liveness (always 200 while serving)
//	GET /readyz           readiness (200 once both listeners are up, 503 once draining)
//	GET /debug/ingest     conservation ledger + gauges (JSON)
//	GET /debug/requests   flight-recorder query over finalized jobs (supremm-serve's
//	                      filters: status, route, outcome, min-ms, since, limit)
//	GET /debug/slo        burn-rate view ({"enabled":false}: no objectives configured)
//	GET /debug/bundle     on-demand diagnostic bundle (503: no bundle directory)
//	GET /api/warehouse/groupby?dim=application|category|user|population|jobsize|month
//	GET /api/warehouse/rollup
//	GET /api/warehouse/totals
//
// The daemon's headline contract is exact record conservation: every
// record a client delivers is summarized exactly once or dropped under
// a named reason, and after a drain
//
//	ingest_records_total{outcome="received"} ==
//	  {outcome="summarized"} + Σ {outcome="dropped",reason=...}
//
// holds exactly, per shard and globally. supremm-ingestload replays a
// seeded firehose and reconciles this equation to the record; the soak
// and chaos suites do the same with -faults armed (sites: ingest.conn,
// ingest.shard, ingest.finalize).
//
// Both listen addresses may end in :0 to pick free ports; the chosen
// addresses are printed in the "serving ingest" log line (addr=... and
// http=...), which test harnesses parse.
//
// On SIGINT/SIGTERM the daemon drains: the wire stops, queued records
// are applied, every open job finalizes, and the process exits with the
// books balanced.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/resilience"
	"repro/internal/warehouse"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9301", "ingest TCP listen address (port 0 picks a free port, logged as addr=...)")
	httpAddr := flag.String("http", "127.0.0.1:9302", "HTTP listen address for metrics and queries (port 0 picks a free port, logged as http=...)")
	shards := flag.Int("shards", 4, "ingest shard count (a job's records are owned by exactly one shard)")
	queueDepth := flag.Int("queue-depth", 1024, "per-shard queue depth; overflow sheds records as dropped{queue_full}")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Second, "finalize a job whose stream has gone quiet without an epilog (0 disables)")
	faultSpec := flag.String("faults", "", "arm fault injection: site=kind:rate[:latency],... (sites: ingest.conn, ingest.shard, ingest.finalize)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the deterministic fault-injection dice")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	log := obs.NewLogger(os.Stderr, level)
	reg := obs.NewRegistry()

	faults, err := resilience.ParseFaults(*faultSeed, *faultSpec)
	if err != nil {
		fatal(err)
	}
	if faults != nil {
		log.Warn("fault injection armed", "sites", fmt.Sprint(faults.Sites()), "spec", faults.String(), "seed", *faultSeed)
	}

	// One wide event per finalized job, filed under /ingest/finalize. The
	// SLO objectives count only the serving path's events, so this daemon
	// declares none: /debug/slo answers {"enabled":false} and no slo_*
	// gauge is exported. The warehouse partitioning is its package's
	// default.
	fcfg := flight.DefaultConfig()
	fcfg.SLO = flight.SLOConfig{}
	rec := flight.NewRecorder(fcfg)
	sink := warehouse.NewSharded(warehouse.ShardedConfig{})
	srv, err := ingest.NewServer(ingest.Config{
		Shards:      *shards,
		QueueDepth:  *queueDepth,
		IdleTimeout: *idleTimeout,
		Sink:        sink,
		Obs:         reg,
		Log:         log,
		Faults:      faults,
		Flight:      rec,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	hln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal(err)
	}

	// The operator endpoints are the ones supremm-serve mounts.
	ops := flight.Ops{Reg: reg, Rec: rec, Log: log}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", ops.Metrics)
	mux.HandleFunc("/debug/requests", ops.Requests)
	mux.HandleFunc("/debug/slo", ops.SLO)
	mux.HandleFunc("/debug/bundle", ops.Bundle)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if srv.Draining() {
			ops.WriteError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/debug/ingest", func(w http.ResponseWriter, _ *http.Request) {
		ops.WriteJSON(w, http.StatusOK, srv.Status())
	})
	mux.HandleFunc("/api/warehouse/groupby", func(w http.ResponseWriter, r *http.Request) {
		dim, err := warehouse.ParseDimension(r.URL.Query().Get("dim"))
		if err != nil {
			ops.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ops.WriteJSON(w, http.StatusOK, sink.Snapshot().GroupBy(dim))
	})
	mux.HandleFunc("/api/warehouse/rollup", func(w http.ResponseWriter, _ *http.Request) {
		ops.WriteJSON(w, http.StatusOK, sink.Snapshot().Rollup())
	})
	mux.HandleFunc("/api/warehouse/totals", func(w http.ResponseWriter, _ *http.Request) {
		ops.WriteJSON(w, http.StatusOK, sink.Snapshot().Totals())
	})
	hsrv := &http.Server{Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 2)
	go func() {
		log.Info("serving ingest", "addr", ln.Addr().String(), "http", hln.Addr().String(),
			"shards", *shards, "queue-depth", *queueDepth, "idle-timeout", idleTimeout.String())
		errCh <- srv.Serve(ln)
	}()
	go func() { errCh <- hsrv.Serve(hln) }()

	select {
	case <-ctx.Done():
		log.Info("signal received, draining")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}

	// Drain: stop the wire, flush every shard, finalize every open job.
	// After this the ledger balances exactly; log it as the parting
	// self-audit.
	srv.Drain()
	st := srv.Status()
	if err := st.Ledger.Check(0); err != nil {
		log.Error("LEDGER IMBALANCE AT SHUTDOWN", "err", err)
	} else {
		log.Info("drained with books balanced",
			"received", st.Ledger.Received, "summarized", st.Ledger.Summarized,
			"dropped", st.Ledger.DroppedSum, "jobs", sink.Len())
	}
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hsrv.Shutdown(shctx)
	if err := st.Ledger.Check(0); err != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "supremm-ingestd:", err)
	os.Exit(1)
}
