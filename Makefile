# Single source of truth for the commands CI runs, so humans and the
# workflow in .github/workflows/ci.yml exercise the repo identically.

GO ?= go

# Coverage may only ratchet upward: raise this floor when coverage
# improves, never lower it to make a failing build pass.
COVER_FLOOR ?= 90.0

FUZZTIME ?= 10s

# Only test binaries that link internal/testkit define the -update flag,
# so the regeneration sweep is scoped to these packages.
TESTKIT_PKGS = ./internal/testkit ./internal/ml/bayes ./internal/ml/forest \
	./internal/ml/svm ./internal/ml/eval ./internal/ml/ensemble ./internal/core \
	./internal/experiments ./internal/lifecycle ./internal/obs/flight

# package:FuzzTarget pairs for the CI fuzz smoke.
FUZZ_TARGETS = \
	./internal/taccstats:FuzzDecode \
	./internal/taccstats:FuzzChunkScan \
	./internal/lariat:FuzzMatch \
	./internal/warehouse:FuzzIngest \
	./internal/dataset:FuzzReadCSV \
	./internal/core:FuzzLoadJobClassifier \
	./internal/loadgen:FuzzLoadConfig \
	./internal/loadgen:FuzzIngestLoadConfig \
	./internal/ml/compile:FuzzCompileParity \
	./internal/ml/forest:FuzzTreeParity \
	./internal/ml/svm:FuzzRBFRow \
	./internal/ingest:FuzzIngestFrame \
	./internal/summarize:FuzzNodeFold \
	./internal/lifecycle:FuzzLifecycleConfig \
	./internal/server:FuzzBatchColumns \
	./internal/server:FuzzScanRow

# Knobs for `make bench` (forwarded to go test): repeat each benchmark
# BENCH_COUNT times for BENCH_TIME each, e.g.
#   make bench BENCH_COUNT=10 > new.txt && benchstat old.txt new.txt
BENCH_COUNT ?= 1
BENCH_TIME ?= 1s

# staticcheck is pinned so CI results are reproducible; bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1

# Knobs for the soak harness (see soak_test.go).
SOAK_DUR ?= 30s
SOAK_RPS ?= 200
SOAK_OUT ?= soak-report.json

# Knobs for the ingest soak harness (see soak_ingest_test.go).
SOAK_INGEST_DUR ?= 30s
SOAK_INGEST_JOBS ?= 48
SOAK_INGEST_OUT ?= soak-ingest-report.json

.PHONY: all build test vet fmt-check race bench alloc-gate \
	bench-module \
	flight-overhead-gate staticcheck paper trace serve-debug clean \
	testkit testkit-update test-shuffle cover fuzz-smoke serve-batch-smoke chaos soak \
	soak-ingest lifecycle-sim

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# bench/ is its own module (repro/bench, replace repro => ../), so the
# root module's build and test cannot see an internal-API break against
# it; this is the step that does.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Fails when any file is not gofmt-clean (gofmt -l prints offenders).
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Race-detect the packages the parallel harness, the observability
# layer (including the flight recorder's concurrent ring), and the
# resilience layer touch.
race:
	$(GO) test -race ./internal/parallel ./internal/ml/... ./internal/core \
		./internal/experiments ./internal/obs ./internal/obs/flight \
		./internal/server ./internal/resilience ./internal/loadgen \
		./internal/ingest ./internal/warehouse ./internal/lifecycle

# The full correctness harness: golden corpus, metamorphic invariants,
# edge-case/equivalence suites, and fuzz seed-corpus replay. -count=1
# defeats the test cache so the goldens are genuinely recompared.
testkit:
	$(GO) test -count=1 ./internal/...

# Regenerate the golden corpus under internal/*/testdata/golden/. On an
# unchanged tree this is byte-identical (check with git diff); see
# EXPERIMENTS.md "Regenerating the golden corpus" before committing a diff.
testkit-update:
	$(GO) test -count=1 $(TESTKIT_PKGS) -update

# Shake out inter-test ordering dependencies.
test-shuffle:
	$(GO) test -shuffle=on ./...

# Coverage profile plus the ratchet gate: fails when total statement
# coverage drops below COVER_FLOOR percent.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total statement coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% ratchet"; exit 1; }

# Run every fuzz target for a short budget; any crasher fails the build.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "==> $$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# Run every Go microbenchmark in the tree, the interpreted-vs-compiled
# pairs in internal/ml/compile included: the human-facing ratio check.
# BENCH_COUNT/BENCH_TIME feed benchstat workflows; see EXPERIMENTS.md
# "Benchmarking". Commit-to-commit speed is judged by the BENCHMARK.json
# run (bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) ./...

# The allocation gate: every TestAlloc* test asserts
# testing.AllocsPerRun == 0 on a compiled-engine serving call (RF, SVM
# and NB predictors, single and batch rows, JobClassifier.Classify
# through the scratch pool, and the governed-row pipeline's per-row
# stage over a compiled RF view), and holds the stack, which returns a
# caller-owned posterior, to that one allocation per row (two through
# JobClassifier, which also copies the row to scale it). The JSON body
# scanners -- a single row, the rows form and the columns form -- are
# held to the body plus the rows they fill and their seen flags, and the
# ingest chunk codec to a fixed budget per call.
alloc-gate:
	$(GO) test -count=1 -run 'TestAlloc' -v ./internal/ml/compile ./internal/ml/ensemble \
		./internal/core ./internal/server ./internal/taccstats

# The flight-recorder overhead ratchet: benchmarks the full serving
# path with the recorder armed vs disarmed and fails when the armed
# ns/request exceeds 1.5x the disarmed path (env-gated so plain
# `go test ./...` never runs benchmarks).
flight-overhead-gate:
	FLIGHT_GATE=1 $(GO) test -count=1 -run TestFlightOverheadGate -v ./internal/server

# Pinned staticcheck over the whole tree; the check set lives in
# staticcheck.conf. Requires network for the first download.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

paper:
	$(GO) run ./cmd/supremm-paper

# Run a reduced suite with span tracing on; writes trace.json and prints
# the per-stage timing summary to stderr.
trace:
	$(GO) run ./cmd/supremm-paper -exp e1,e2,table2,fig1 \
		-train 25 -test 400 -unknown 200 -trace trace.json

# Serve the API with /metrics, /debug/pprof and debug logging enabled.
serve-debug:
	$(GO) run ./cmd/supremm-serve -pprof -log-level debug

# End-to-end serving smoke: boots the real supremm-serve binary,
# checks batch/single classify parity on live responses, and hot-swaps
# the model via /admin/model/reload and SIGHUP. Fails on any non-2xx
# response or parity divergence. Gated behind the servesmoke build tag
# so plain `go test ./...` stays fast.
serve-batch-smoke:
	$(GO) test -count=1 -tags servesmoke -run TestServeBatchSmoke -v .

# The in-process chaos suite under the race detector: fault-injected
# reloads under live traffic (no torn models), breaker open/recover,
# deadline all-or-nothing, panic isolation, shed parity at batch
# workers 1 vs 4, exact shed/timeout counter reconciliation, and the
# lifecycle control-plane faults (failed retrains/promotions never
# disturb the serving champion; shadow faults never reach clients).
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestShedTimeout' -v \
		./internal/server ./internal/lifecycle

# The deterministic lifecycle simulation harness under the race
# detector: seeded traffic with a known injected shift through a real
# champion + loop; asserts drift fires within a bounded window, shadow
# scoring never perturbs served answers (byte parity vs a loop-disabled
# reference), promotion happens iff the McNemar gate passes, ledgers
# reconcile exactly, and the trace is bit-identical at workers 1 vs N.
# The trace artifact lands at LIFECYCLE_SIM_OUT (CI sets it on `make
# race`, which runs the same tests, and uploads the file).
LIFECYCLE_SIM_OUT ?= lifecycle-sim-trace.txt
lifecycle-sim:
	LIFECYCLE_SIM_OUT=$(abspath $(LIFECYCLE_SIM_OUT)) \
		$(GO) test -race -count=1 -run 'TestLifecycleSim' -v ./internal/lifecycle

# The out-of-process soak: builds supremm-serve WITH -race, boots it
# with fault injection armed, drives it with the seeded open-loop
# generator (cmd/supremm-load's HTTP wire) for SOAK_DUR while SIGHUP
# reloads hammer the breaker, then reconciles client-observed counts
# against /metrics exactly — including the lifecycle loop's shadow
# ledger against the flight recorder's independently-summed tallies
# (a SIGUSR1 retrain installs the shadow challenger before the load
# starts). The JSON report lands at SOAK_OUT.
soak:
	SOAK_DUR=$(SOAK_DUR) SOAK_RPS=$(SOAK_RPS) SOAK_OUT=$(SOAK_OUT) \
		$(GO) test -count=1 -tags soak -run TestSoakServeUnderFaults -v -timeout 10m .

# The ingest soak: builds supremm-serve WITH -race, boots it with
# -ingest-addr and fault injection armed at every ingest site, replays a
# seeded firehose (cmd/supremm-load's ingest wire, an addr= spec), and
# reconciles the conservation ledger against the
# clients' acks and /metrics exactly (received == summarized + dropped,
# per shard and globally). A job whose epilog a fault dropped finalizes
# on the 30 s idle sweep, so the reconciliation waits that out. It also
# checks that one flight recorder holds the ingest events while the SLO
# counts only /api/classify. SIGTERM then makes the server drain ingest
# and self-audit; a non-zero exit means its own books did not balance.
# The JSON report lands at SOAK_INGEST_OUT.
soak-ingest:
	SOAK_INGEST_DUR=$(SOAK_INGEST_DUR) SOAK_INGEST_JOBS=$(SOAK_INGEST_JOBS) \
	SOAK_INGEST_OUT=$(SOAK_INGEST_OUT) \
		$(GO) test -count=1 -tags soak -run TestSoakIngestConservation -v -timeout 10m .

clean:
	rm -f trace.json coverage.out soak-report.json \
		soak-ingest-report.json lifecycle-sim-trace.txt
