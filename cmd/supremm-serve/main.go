// Command supremm-serve runs the XDMoD-style metrics and classification
// API over a warehouse seeded with a freshly generated workload:
// warehouse queries (overview, group-by, drill-down, monthly
// utilization, hourly rollup) plus online job classification endpoints
// (single-row and batch) backed by a trained (or loaded) model that can
// be hot-swapped without a restart. With -ingest-addr it also hosts the
// streaming ingest path that grows that warehouse.
//
// Usage:
//
//	supremm-serve [-addr :8080] [-ingest-addr 127.0.0.1:9301] [-jobs N]
//	              [-seed N] [-model saved.bin]
//	              [-model-snapshot out.bin] [-batch-workers N]
//	              [-request-timeout 30s] [-max-concurrent N] [-max-queue N]
//	              [-breaker-threshold N] [-breaker-open-for 30s]
//	              [-faults SPEC] [-fault-seed N]
//	              [-lifecycle] [-lifecycle-spec window=256,algo=stack,...]
//	              [-flight-capacity N] [-bundle-dir DIR]
//	              [-pprof] [-log-level debug|info|warn|error]
//
// Endpoints:
//
//	GET  /api/overview
//	GET  /api/groupby?dim=application|category|user|population|jobsize|month
//	GET  /api/drilldown?outer=DIM&inner=DIM
//	GET  /api/utilization[?nodes=N]
//	GET  /api/rollup
//	GET  /api/features
//	POST /api/classify        {"features": {"MEM_USED": ..., ...}, "threshold": 0.8}
//	POST /api/classify/batch  {"rows": [{...}, ...], "threshold": 0.8}
//	                          or {"columns": {"CPU_USER": [...], ...}, "threshold": 0.8}
//	GET  /api/discover        serving discovery fit: clusters over the Uncategorized/NA jobs
//	POST /api/discover        refit discovery {"k": 8, "components": 5, "restarts": 8, "seed": 1}
//	POST /api/discover/assign {"features": {...}} -> cluster + distance + anomaly flags
//	POST /admin/model/reload  {"path": "saved.bin"} (path optional once configured)
//	GET  /api/lifecycle       closed-loop state: drift stats, shadow ledger, transitions
//	POST /admin/lifecycle/retrain   force a challenger retrain (shadow-scored, never serving)
//	POST /admin/lifecycle/promote   run the significance-gated promotion decision now
//	POST /admin/lifecycle/rollback  swap the pre-promotion champion back in
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness (always 200 while serving)
//	GET  /readyz              readiness (503 until a model is published, while the reload breaker is open, or once ingest drains)
//	GET  /debug/requests      flight-recorder query (?id=&status=&route=&outcome=&min-ms=&since=&limit=)
//	GET  /debug/slo           multi-window SLO burn-rate status
//	GET  /debug/bundle        capture a diagnostic bundle now (needs -bundle-dir)
//	GET  /debug/ingest        ingest conservation ledger + gauges (with -ingest-addr)
//	GET  /debug/pprof/*       (with -pprof)
//
// Ingest: -ingest-addr opens the TCP wire internal/ingest speaks.
// Compute nodes stream TACC_Stats chunks and job metadata; a router
// hashes each job to a shard, the shard summarizes it on its epilog (or
// after 30 s idle), and the record lands in the served warehouse, which
// the boot workload seeded. Every record a client delivers is summarized
// exactly once or dropped under a named reason, so the ingest ledger
// balances exactly after a drain (see internal/ingest; supremm-load
// -reconcile with an addr= spec reconciles it to the record). Finalized jobs land in the same flight
// recorder under /ingest/finalize, which the SLO objectives do not
// count. The served warehouse is the only copy of the workload: the
// boot models, the boot discovery fit and the lifecycle's retrains read
// its boot cut, taken right after seeding, and POST /api/discover refits
// over its current cut. Retraining on jobs that ran since boot means
// replacing the boot cut with a trailing window over the current one.
//
// Observability: every request lands one wide event in the in-process
// flight recorder: identity, route, status, outcome, queue/handler/row
// timings, the handler's read/decode/score/encode stage split, batch
// size, model generation, fault hits. The ring
// (-flight-capacity events) tail-samples -- errors, timeouts, sheds,
// panics and the rolling latency top-K are always kept; healthy traffic
// is counter-sampled. An SLO burn-rate engine watches availability and
// latency over multiple windows, and when the short-window burn crosses
// its threshold (or the reload breaker opens) a diagnostic bundle --
// ring snapshot, SLO state, metrics dump, heap profile -- is captured
// into -bundle-dir, rate-limited. Sampling, objectives and bundle
// policy are constants of internal/obs/flight.
//
// Resilience: the model-serving endpoints (classification and discovery
// assignment) carry a per-request deadline
// (-request-timeout, 504 on overrun) and, when -max-concurrent is set, a
// bounded admission queue that sheds overload with 429 + Retry-After
// instead of queueing unboundedly. Model reloads (admin endpoint and
// SIGHUP alike) run behind a circuit breaker: -breaker-threshold
// consecutive failures open it, reloads then fail fast (503) until a
// half-open probe succeeds after -breaker-open-for. -faults arms the
// deterministic fault-injection registry (sites: reload, classify.row,
// discover.fit, discover.assign, lifecycle.*, ingest.conn, ingest.shard,
// ingest.finalize; see internal/resilience) for chaos and soak runs --
// never in default builds.
//
// Lifecycle: -lifecycle arms the closed loop over the serving model
// (see internal/lifecycle): per-feature and posterior PSI drift
// monitors over live classify traffic, shadow retraining of a
// challenger on drift (or on demand via POST /admin/lifecycle/retrain
// or SIGUSR1), and champion-challenger promotion gated on a McNemar
// paired test -- all through the same schema-validated swap and
// circuit breaker as model reloads. -lifecycle-spec tunes the loop
// (key=value,... -- window, bins, min, every, drift, pdrift,
// shadowmin, alpha, margin, cooldown, train, algo, seed, auto) and is a
// startup error without -lifecycle.
//
// Both listen addresses may end in :0 to pick a free port; the chosen
// addresses are printed in the "serving api" log line (addr=... and
// ingest=..., "off" without -ingest-addr), which test harnesses parse.
//
// SIGHUP atomically reloads the model from the configured path (the
// -model flag, -model-snapshot, or the last successful reload) without
// dropping a request. The server shuts down gracefully on
// SIGINT/SIGTERM: the ingest path drains first (the wire closes, queued
// records apply, every open job finalizes) and its ledger is audited,
// then in-flight requests get up to 10 s. The process exits 1 if the
// ingest books do not balance.
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
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ingest"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/parallel"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/warehouse"
)

// shutdownTimeout is the grace period for in-flight requests on
// SIGINT/SIGTERM.
const shutdownTimeout = 10 * time.Second

// ingestIdleTimeout finalizes an ingested job whose stream went quiet
// without a complete epilog (a node crash, or frames a fault dropped).
const ingestIdleTimeout = 30 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address (port 0 picks a free port, logged as addr=...)")
	ingestAddr := flag.String("ingest-addr", "", "ingest TCP listen address feeding the served warehouse (empty disables; port 0 picks a free port, logged as ingest=...)")
	jobs := flag.Int("jobs", 2000, "workload size to generate and serve")
	seed := flag.Uint64("seed", 2014, "random seed")
	modelPath := flag.String("model", "", "load a saved classifier (default: train a category RF on the workload)")
	snapshotPath := flag.String("model-snapshot", "", "write the boot model to this file (becomes the SIGHUP reload path when -model is unset)")
	batchWorkers := flag.Int("batch-workers", 0, "worker goroutines per batch classify request (0 = GOMAXPROCS)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline on classification endpoints (0 disables; overruns answer 504)")
	maxConcurrent := flag.Int("max-concurrent", 0, "classification requests allowed to execute at once (0 = unlimited, admission control off)")
	maxQueue := flag.Int("max-queue", 64, "classification requests allowed to wait beyond -max-concurrent before shedding with 429")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive model reload failures that open the reload circuit breaker")
	breakerOpenFor := flag.Duration("breaker-open-for", 30*time.Second, "how long the reload breaker stays open before a half-open probe")
	faultSpec := flag.String("faults", "", "arm fault injection: site=kind:rate[:latency],... (sites: reload, classify.row, discover.fit, discover.assign, lifecycle.retrain, lifecycle.promote, lifecycle.shadow, ingest.conn, ingest.shard, ingest.finalize; kinds: error, latency, panic)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the deterministic fault-injection dice")
	lifecycleOn := flag.Bool("lifecycle", false, "arm the closed-loop model lifecycle: drift monitors, shadow retraining, gated champion-challenger promotion")
	lifecycleSpec := flag.String("lifecycle-spec", "", "lifecycle loop tuning, needs -lifecycle: key=value,... (window, bins, min, every, drift, pdrift, shadowmin, alpha, margin, cooldown, train, algo, seed, auto; empty = defaults)")
	flightCapacity := flag.Int("flight-capacity", flight.DefaultConfig().Capacity, "flight-recorder ring capacity in events (half reserved for errors)")
	bundleDir := flag.String("bundle-dir", "", "directory for diagnostic bundles (empty disables capture)")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof endpoints")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()
	if *lifecycleSpec != "" && !*lifecycleOn {
		fatal(errors.New("-lifecycle-spec is set but -lifecycle is not: the spec would be ignored"))
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	log := obs.NewLogger(os.Stderr, level)
	reg := obs.NewRegistry()
	parallel.Instrument(reg)

	faults, err := resilience.ParseFaults(*faultSeed, *faultSpec)
	if err != nil {
		fatal(err)
	}
	if faults != nil {
		log.Warn("fault injection armed", "sites", fmt.Sprint(faults.Sites()), "spec", faults.String(), "seed", *faultSeed)
	}

	log.Info("generating workload", "jobs", *jobs, "seed", *seed)
	cfg := core.DefaultPipelineConfig(*seed, *jobs)
	cfg.Obs = core.Instrumentation{Metrics: reg, Log: log}
	res, err := core.RunPipeline(cfg)
	if err != nil {
		fatal(err)
	}
	// The served warehouse is the only holder of the workload: seeded
	// with the boot workload, grown by ingest. boot, its cut right after
	// seeding, feeds the models, the discovery fit, the drift baseline
	// and every retrain. A cut is in job-id order, the pipeline's
	// generation order while ids stay seven digits (-jobs < 9 000 000).
	// Retraining on jobs that ran since boot means handing the trainer a
	// trailing window of sink.Records() instead of boot.
	sink := warehouse.NewSharded(warehouse.ShardedConfig{})
	for _, rec := range res.Records {
		if err := sink.Ingest(rec); err != nil {
			fatal(err)
		}
	}
	boot := sink.Records()
	var ds *dataset.Dataset // the boot category dataset, built at most once
	if *modelPath == "" || *lifecycleOn {
		if ds, err = core.BuildDataset(boot, core.LabelByCategory, core.DefaultFeatures()); err != nil {
			fatal(err)
		}
	}

	models := core.NewModelManager(reg)
	if *modelPath != "" {
		if _, err := models.ReloadFromFile(*modelPath); err != nil {
			fatal(err)
		}
		log.Info("loaded classifier", "algo", models.View().Model.Algo, "path", *modelPath)
	} else {
		model, err := core.TrainJobClassifier(ds, core.PaperForest(*seed))
		if err != nil {
			fatal(err)
		}
		if _, err := models.Swap(model); err != nil {
			fatal(err)
		}
		log.Info("trained category random forest on the generated workload")
	}
	if *snapshotPath != "" {
		f, err := os.Create(*snapshotPath)
		if err != nil {
			fatal(err)
		}
		if err := models.View().Model.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if models.Path() == "" {
			models.SetPath(*snapshotPath)
		}
		log.Info("wrote model snapshot", "path", *snapshotPath)
	}

	// The discovery fit covers the population the supervised model cannot
	// name. A thin unlabeled population is a warning, not a boot failure:
	// POST /api/discover refits once more data lands in the warehouse.
	discovery := core.NewDiscoveryManager(reg)
	dm, err := core.FitDiscovery(
		core.FeaturizeAll(boot.Filter((*warehouse.Record).Unlabeled), core.DefaultFeatures()),
		core.FeatureNames(core.DefaultFeatures()),
		core.DiscoveryConfig{Seed: *seed, Workers: *batchWorkers})
	if err != nil {
		log.Warn("discovery fit skipped", "err", err)
	} else if _, err := discovery.Swap(dm); err != nil {
		fatal(err)
	} else {
		log.Info("fitted unknown-app discovery model",
			"rows", dm.Rows, "k", dm.K, "inertia", fmt.Sprintf("%.3f", dm.Inertia))
	}

	opts := []server.Option{
		server.WithMetrics(reg), server.WithLogger(log),
		server.WithModelManager(models), server.WithBatchWorkers(*batchWorkers),
		server.WithDiscovery(discovery),
		server.WithResilience(server.ResilienceConfig{
			RequestTimeout: *requestTimeout,
			MaxConcurrent:  *maxConcurrent,
			MaxQueue:       *maxQueue,
		}),
		server.WithReloadBreaker(resilience.BreakerConfig{
			FailureThreshold: *breakerThreshold,
			OpenFor:          *breakerOpenFor,
		}),
	}
	if faults != nil {
		opts = append(opts, server.WithFaults(faults))
	}
	if *lifecycleOn {
		lcCfg, err := lifecycle.ParseSpec(*lifecycleSpec)
		if err != nil {
			fatal(err)
		}
		if lcCfg.Seed == 0 {
			lcCfg.Seed = *seed
		}
		// The drift baseline freezes the boot dataset under the same
		// featurization the champion serves.
		champ := models.View().Model
		if !slices.Equal(champ.Features, ds.FeatureNames) {
			fatal(fmt.Errorf("lifecycle: loaded model's features %v do not match the warehouse featurization %v",
				champ.Features, ds.FeatureNames))
		}
		base, err := lifecycle.BaselineFor(ds, champ, lcCfg.Bins)
		if err != nil {
			fatal(err)
		}
		// Every retrain reads the most recent TrainWindow labeled rows of
		// the boot dataset. TrainChallenger copies before it scales, so
		// the rows are shared, never written.
		lo := ds.Len() - min(lcCfg.TrainWindow, ds.Len())
		labels := make([]string, 0, ds.Len()-lo)
		for i := lo; i < ds.Len(); i++ {
			labels = append(labels, ds.Label(i))
		}
		trainer := func() (lifecycle.TrainResult, error) {
			return lifecycle.TrainChallenger(ds.FeatureNames, ds.X[lo:], labels, lcCfg)
		}
		opts = append(opts, server.WithLifecycle(lcCfg, lifecycle.Options{
			Trainer: trainer, Baseline: base,
		}))
		log.Info("lifecycle loop armed", "spec", lcCfg.Spec())
	}
	fcfg := flight.DefaultConfig()
	fcfg.Capacity = *flightCapacity
	fcfg.Bundle.Dir = *bundleDir
	fcfg.Bundle.Registry = reg
	rec := flight.NewRecorder(fcfg)
	opts = append(opts, server.WithFlightRecorder(rec))
	log.Info("flight recorder armed", "capacity", fcfg.Capacity, "bundle-dir", *bundleDir)
	if *pprofOn {
		opts = append(opts, server.WithPprof())
	}

	// The ingest path shares the API's registry, logger, faults and
	// recorder; shards and queue depth are ingest.Config's defaults.
	var ing *ingest.Server
	var ingestLn net.Listener
	ingestAt := "off"
	if *ingestAddr != "" {
		ing, err = ingest.NewServer(ingest.Config{
			IdleTimeout: ingestIdleTimeout,
			Sink:        sink,
			Obs:         reg,
			Log:         log,
			Faults:      faults,
			Flight:      rec,
		})
		if err != nil {
			fatal(err)
		}
		if ingestLn, err = net.Listen("tcp", *ingestAddr); err != nil {
			fatal(err)
		}
		ingestAt = ingestLn.Addr().String()
		opts = append(opts, server.WithIngest(ing))
	}
	api := server.New(sink, nil, cfg.Machine.TotalNodes(), opts...)

	// SIGHUP hot-swaps the model from the configured path through the
	// same breaker as the admin endpoint; a failed reload logs and keeps
	// the old model serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			gen, err := api.ReloadModel("")
			if err != nil {
				log.Warn("SIGHUP model reload failed", "err", err)
				continue
			}
			log.Info("SIGHUP model reload complete", "generation", gen, "path", models.Path())
		}
	}()

	// The lifecycle loop's actions run off the serving goroutines: a
	// drain goroutine answers the loop's pokes (drift fired, shadow
	// window filled) with Step, and SIGUSR1 forces a challenger retrain
	// the way SIGHUP forces a model reload.
	if loop := api.Lifecycle(); loop != nil {
		if ch := api.LifecycleNotify(); ch != nil {
			go func() {
				for range ch {
					loop.Step()
				}
			}()
		}
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		go func() {
			for range usr1 {
				if err := loop.Retrain(); err != nil {
					log.Warn("SIGUSR1 lifecycle retrain failed", "err", err)
					continue
				}
				log.Info("SIGUSR1 lifecycle retrain complete: challenger shadowing")
			}
		}()
	}

	// Bind before announcing, so the logged addr is the real one even
	// when -addr ends in :0 (test harnesses parse this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: api}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 2) // one send per listener
	if ing != nil {
		go func() { errCh <- ing.Serve(ingestLn) }()
	}
	go func() {
		log.Info("serving api", "addr", ln.Addr().String(), "ingest", ingestAt, "pprof", *pprofOn,
			"request-timeout", *requestTimeout, "max-concurrent", *maxConcurrent)
		errCh <- srv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop() // restore default signal handling so a second ^C kills us
		// Drain ingest first, while /readyz and /debug/ingest still
		// answer: the wire stops, every open job finalizes, and the ledger
		// then balances exactly or the process exits 1.
		var audit error
		if ing != nil {
			ing.Drain()
			st := ing.Status()
			if audit = st.Ledger.Check(0); audit != nil {
				log.Error("LEDGER IMBALANCE AT SHUTDOWN", "err", audit)
			} else {
				log.Info("drained with books balanced",
					"received", st.Ledger.Received, "summarized", st.Ledger.Summarized,
					"dropped", st.Ledger.DroppedSum, "jobs", sink.Len())
			}
		}
		log.Info("shutting down", "grace", shutdownTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Warn("shutdown incomplete", "err", err)
			_ = srv.Close()
		}
		log.Info("stopped")
		if audit != nil {
			fatal(audit)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "supremm-serve:", err)
	os.Exit(1)
}
