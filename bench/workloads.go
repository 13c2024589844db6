package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
)

type kind int

const (
	kindSingle    kind = iota // POST /api/classify, one row
	kindBatchRows             // POST /api/classify/batch, array of maps
	kindBatchCols             // POST /api/classify/batch, column-major
	kindIngest                // framed TCP stream into supremm-ingestd's core
)

// workload is one row of the benchmark's traffic table. Names are fixed:
// later issues cite them. BENCHMARK.json carries each workload's why.
type workload struct {
	name      string
	kind      kind
	rows      int // rows per request
	bodies    int // distinct pre-marshalled bodies, cycled round-robin
	label     core.LabelFunc
	model     func(seed uint64) core.ClassifierConfig
	lifecycle bool
	// tail is the percentile the traced run's tail-latency metric reports:
	// the highest of p99, p95 and p90 that a 10 s window leaves at least
	// ten samples beyond.
	tail   float64
	replay int // requests the traced run replays layer by layer
}

// stackConfig is the lifecycle loop's default challenger (algo=stack):
// NB + 40-tree RF + RBF C=10 SVM under a softmax meta-learner. It is
// spelled out here because lifecycle keeps its own copy private; a
// promotion puts exactly this model on the serving path.
func stackConfig(seed uint64) core.ClassifierConfig {
	return core.ClassifierConfig{Algo: core.AlgoStack, Stack: ensemble.Config{
		Seed:   seed,
		Forest: forest.Config{Trees: 40, Seed: seed},
		SVM:    svm.Config{Kernel: svm.RBF{Gamma: 0.1}, C: 10, Probability: true, Seed: seed},
	}}
}

var workloads = []*workload{
	{name: "single-rf", kind: kindSingle, rows: 1, bodies: 2048,
		label: core.LabelByCategory, model: core.PaperForest, tail: 0.99, replay: 256},
	{name: "batch-rows-svm", kind: kindBatchRows, rows: 256, bodies: 16,
		label: core.LabelByLariat, model: core.PaperSVM, tail: 0.95, replay: 32},
	{name: "batch-cols-rf", kind: kindBatchCols, rows: 2048, bodies: 16,
		label: core.LabelByCategory, model: core.PaperForest, tail: 0.95, replay: 32},
	{name: "batch-rows-stack-lifecycle", kind: kindBatchRows, rows: 64, bodies: 16,
		label: core.LabelByCategory, model: stackConfig, lifecycle: true, tail: 0.95, replay: 32},
	{name: "ingest-stream", kind: kindIngest, tail: 0.90},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ingestParams sizes the ingest-stream workload.
type ingestParams struct {
	jobs     int     // jobs per pass
	maxHosts int     // nodes per job cap
	wallCap  float64 // wall seconds cap
	chunk    int     // samples per data frame
	conns    int     // ingest.Client connections
	shards   int     // ingest shards and warehouse shards
	readerHz int     // Snapshot().GroupBy rate beside the writes
}

// scale holds every size the benchmark runs at. The one place the fast
// tests differ from a real run.
type scale struct {
	corpusJobs int // core.RunPipeline job count
	setups     int // timed set-ups per run; setup_s is their median
	warmup     time.Duration
	replay     int // cap on the requests a traced run replays (0 = the workload's own count)
	ingest     ingestParams
}

// conns is the closed-loop client count: callers of /api/classify* and
// bulk labellers each wait for their reply. More clients than cores only
// measures the scheduler in this single-process harness.
func conns() int { return min(runtime.NumCPU(), 2) }

// fullScale is what BENCHMARK.json runs. The issue's prototype used 20 s
// windows, 3 s warm-up, 64 batch bodies and 1500 ingest jobs a pass; the
// driver's budget (114 runs in 3420 s, set-up included) does not hold
// that, so the window is the issue's 10 s floor, warm-up is 1 s, batch
// workloads cycle 16 bodies, and a pass is 300 jobs so that a window
// still counts about ten passes.
func fullScale() scale {
	return scale{
		corpusJobs: 4000,
		setups:     3,
		warmup:     time.Second,
		ingest: ingestParams{jobs: 300, maxHosts: 8, wallCap: 43200, chunk: 8,
			conns: conns(), shards: 4, readerHz: 10},
	}
}

// decl declares one metric: its name, unit, direction and — for
// end-to-end metrics — the share of the parent's median by which it may
// worsen. BENCHMARK.json repeats these; a test keeps the two in step.
type decl struct {
	name, unit, better string
	bound              float64
}

// End-to-end metrics are what a user of either daemon sees. The driver
// wants every one of them from every workload, so names are shared:
// an item is a classified row on the serving workloads and an acked
// record on ingest-stream; latency is the request round trip on the
// serving workloads and the concurrent warehouse query on ingest-stream.
// bench/README.md maps them to the per-daemon names the issue used.
//
// Every bound is the contract's ceiling of 0.25. The issue proposed 0.07
// to 0.20, sized for runs that agree within 3 %; on the sandbox this was
// built on, ten 10-second runs of one commit spread (IQR / median) by 7
// to 13 % on the timing metrics, more on single-rf when the host slows
// the guest for a few minutes, and a bound has to clear that spread or
// an unchanged program fails it. Tail latency spread by up to 23 % and
// is a per-layer metric for that reason (server.lat_tail_ms,
// warehouse.query_tail_ms). Smaller differences are for paired runs to
// resolve, not for the bound. bench/README.md has the measurements.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"items_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_item", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// Per-layer metrics, prefixed with the module they measure. A layer that
// is not on a workload's path reports 0 there.
var perLayer = []decl{
	{name: "server.roundtrip_us", unit: "us", better: "lower"},
	{name: "server.serve_http_us", unit: "us", better: "lower"},
	{name: "server.serve_http_serial_us", unit: "us", better: "lower"},
	{name: "server.net_us", unit: "us", better: "lower"},
	{name: "server.lat_tail_ms", unit: "ms", better: "lower"},
	{name: "server.json_decode_us", unit: "us", better: "lower"},
	{name: "server.json_encode_us", unit: "us", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "server.replay_coverage", unit: "ratio", better: "higher"},
	{name: "server.req_bytes", unit: "bytes", better: "lower"},
	{name: "server.resp_bytes", unit: "bytes", better: "lower"},
	{name: "server.ok", unit: "count", better: "higher"},
	{name: "server.shed", unit: "count", better: "lower"},
	{name: "server.timeouts", unit: "count", better: "lower"},
	{name: "server.encode_errors", unit: "count", better: "lower"},
	{name: "core.resolve_ns_per_row", unit: "ns", better: "lower"},
	{name: "core.classify_ns_per_row", unit: "ns", better: "lower"},
	{name: "core.classify_allocs_per_row", unit: "count", better: "lower"},
	{name: "core.compiled", unit: "count", better: "higher"},
	{name: "core.swap_ms", unit: "ms", better: "lower"},
	{name: "core.train_ms", unit: "ms", better: "lower"},
	{name: "ml.compile.predict_ns_per_row", unit: "ns", better: "lower"},
	{name: "ml.compile.allocs_per_row", unit: "count", better: "lower"},
	{name: "ml.ensemble.predict_ns_per_row", unit: "ns", better: "lower"},
	{name: "ml.compile.svm_unique_svs", unit: "count", better: "lower"},
	{name: "ml.compile.svm_pairs", unit: "count", better: "lower"},
	{name: "ml.compile.svm_flops_per_row", unit: "count", better: "lower"},
	{name: "ml.compile.svm_bytes_per_row", unit: "bytes", better: "lower"},
	{name: "ml.compile.rf_nodes", unit: "count", better: "lower"},
	{name: "lifecycle.observe_ns_per_row", unit: "ns", better: "lower"},
	{name: "lifecycle.observe_contended_ns_per_row", unit: "ns", better: "lower"},
	{name: "lifecycle.rows_seen", unit: "count", better: "higher"},
	{name: "obs.histogram_lookup_observe_ns", unit: "ns", better: "lower"},
	{name: "obs.counter_lookup_inc_ns", unit: "ns", better: "lower"},
	{name: "obs.flight.record_ns", unit: "ns", better: "lower"},
	{name: "obs.flight.observed", unit: "count", better: "higher"},
	{name: "obs.flight.kept", unit: "count", better: "lower"},
	{name: "obs.flight.sampled_out", unit: "count", better: "higher"},
	{name: "parallel.fanout_ns_per_row", unit: "ns", better: "lower"},
	{name: "parallel.batch_speedup", unit: "ratio", better: "higher"},
	{name: "ingest.frame_encode_ns", unit: "ns", better: "lower"},
	{name: "ingest.frame_decode_ns", unit: "ns", better: "lower"},
	{name: "ingest.wire_bytes_per_record", unit: "bytes", better: "lower"},
	{name: "ingest.frames", unit: "count", better: "higher"},
	{name: "ingest.records_received", unit: "count", better: "higher"},
	{name: "ingest.records_summarized", unit: "count", better: "higher"},
	{name: "ingest.records_dropped", unit: "count", better: "lower"},
	{name: "ingest.duplicates", unit: "count", better: "lower"},
	{name: "ingest.reconnects", unit: "count", better: "lower"},
	{name: "ingest.shard_depth_max", unit: "count", better: "lower"},
	{name: "ingest.shard_skew", unit: "ratio", better: "lower"},
	{name: "taccstats.chunk_encode_ns_per_record", unit: "ns", better: "lower"},
	{name: "taccstats.chunk_decode_ns_per_record", unit: "ns", better: "lower"},
	{name: "summarize.summarize_us_per_job", unit: "us", better: "lower"},
	{name: "summarize.records_per_job", unit: "count", better: "lower"},
	{name: "warehouse.sharded_ingest_ns_per_job", unit: "ns", better: "lower"},
	{name: "warehouse.store_ingest_ns_per_job", unit: "ns", better: "lower"},
	{name: "warehouse.snapshot_ms", unit: "ms", better: "lower"},
	{name: "warehouse.groupby_ms", unit: "ms", better: "lower"},
	{name: "warehouse.query_tail_ms", unit: "ms", better: "lower"},
	{name: "warehouse.jobs", unit: "count", better: "higher"},
}
