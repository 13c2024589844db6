package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/lariat"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/summarize"
	"repro/internal/taccstats"
	"repro/internal/warehouse"
)

// Instrumentation carries optional observability hooks through the
// pipeline and training layers. The zero value is a valid no-op: all obs
// types are nil-safe, so uninstrumented callers pay near-zero cost and no
// RNG stream is ever touched by instrumentation.
type Instrumentation struct {
	Span    *obs.Span
	Metrics *obs.Registry
	Log     *obs.Logger
}

// enabled reports whether any timing work should happen at all, so the
// uninstrumented hot path skips even the time.Now calls.
func (ins Instrumentation) enabled() bool { return ins.Span != nil || ins.Metrics != nil }

// JobRecord is the warehouse record under its old name, kept because
// bench/ spells []*core.JobRecord; everything else says warehouse.Record.
type JobRecord = warehouse.Record

// PipelineConfig configures an end-to-end dataset generation run.
type PipelineConfig struct {
	Seed    uint64
	NumJobs int

	Machine cluster.Machine
	Cluster cluster.Config

	// Segments enables per-time-slice summarization (needed for
	// time-dependent features).
	Segments int

	// Workers bounds concurrent collection+summarization (default
	// GOMAXPROCS).
	Workers int

	// UseScheduler routes the workload through the event-driven batch
	// scheduler (FCFS with EASY backfill) so start times, node
	// placements and queue waits are emergent instead of sampled.
	UseScheduler bool

	// Obs carries optional metrics/tracing/logging; the zero value is a
	// no-op and leaves the run bit-identical to an uninstrumented one.
	Obs Instrumentation
}

// wallEstimateFactor models users over-requesting wall time; the
// scheduler's backfill reservations reason about these estimates.
const wallEstimateFactor = 1.5

// DefaultPipelineConfig mirrors the paper's Stampede 2014 setting at a
// configurable job count.
func DefaultPipelineConfig(seed uint64, numJobs int) PipelineConfig {
	return PipelineConfig{
		Seed:    seed,
		NumJobs: numJobs,
		Machine: cluster.Stampede(),
		Cluster: cluster.DefaultConfig(seed),
	}
}

// PipelineResult is the output of RunPipeline: the processed jobs in
// generation order, and the warehouse holding those same records.
type PipelineResult struct {
	Records []*warehouse.Record
	Store   *warehouse.Store
}

// RunPipeline generates jobs, runs the simulated TACC_Stats collector on
// every node of every job, labels jobs through Lariat path matching,
// summarizes the raw archives into SUPReMM job summaries, and ingests
// everything into a warehouse. The whole run is deterministic in
// cfg.Seed.
func RunPipeline(cfg PipelineConfig) (*PipelineResult, error) {
	if cfg.NumJobs <= 0 {
		return nil, fmt.Errorf("core: NumJobs must be positive")
	}
	if cfg.Machine.TotalNodes() == 0 {
		cfg.Machine = cluster.Stampede()
	}
	cfg.Cluster.Seed = cfg.Seed
	collector := taccstats.DefaultConfig()

	sp := cfg.Obs.Span
	cfg.Obs.Log.Debug("pipeline: generating workload", "jobs", cfg.NumJobs, "seed", cfg.Seed)

	gsp := sp.Child("generate")
	gen := cluster.NewGenerator(cfg.Machine, cfg.Cluster)
	jobs := gen.Generate(cfg.NumJobs)
	if cfg.UseScheduler {
		ssp := gsp.Child("schedule")
		err := cluster.ScheduleWorkload(cfg.Machine, jobs, true, wallEstimateFactor)
		ssp.End()
		if err != nil {
			return nil, err
		}
	}
	gsp.SetAttr("jobs", len(jobs))
	gsp.End()

	matcher := lariat.NewMatcher(apps.Catalog())

	// Collection and summarization are fused per job, so the stage span
	// covers both; the per-phase split is recovered from worker-summed
	// busy time (AddTimed children) and the per-job latency histograms.
	timed := cfg.Obs.enabled()
	var collectNS, summarizeNS atomic.Int64
	var collectHist, summarizeHist *obs.Histogram
	if reg := cfg.Obs.Metrics; reg != nil {
		reg.Help("pipeline_collect_seconds", "Per-job TACC_Stats collection latency.")
		reg.Help("pipeline_summarize_seconds", "Per-job SUPReMM summarization latency.")
		collectHist = reg.Histogram("pipeline_collect_seconds", nil)
		summarizeHist = reg.Histogram("pipeline_summarize_seconds", nil)
	}
	csp := sp.Child("collect+summarize")

	// Job i's collection noise comes from Split(i), so the archives are
	// identical at any worker count.
	root := rng.New(cfg.Seed ^ 0xc011ec7)
	records, err := parallel.MapSeeded(root, cfg.Workers, len(jobs), func(i int, r *rng.Rand) (*warehouse.Record, error) {
		j := jobs[i]
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		arch := taccstats.Collect(collector, taccstats.JobInfo{
			ID: j.ID, Start: j.Start, Hosts: j.Hosts,
		}, j.Draw, r)
		if timed {
			d := time.Since(t0)
			collectNS.Add(int64(d))
			collectHist.Observe(d.Seconds())
			t0 = time.Now()
		}
		sum, err := summarize.Summarize(arch, collector, summarize.Options{Segments: cfg.Segments})
		if timed {
			d := time.Since(t0)
			summarizeNS.Add(int64(d))
			summarizeHist.Observe(d.Seconds())
		}
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", j.ID, err)
		}
		label, category := matcher.LabelJob(j)
		return &warehouse.Record{
			JobID:       j.ID,
			User:        j.User,
			AppLabel:    label,
			Category:    category,
			Pop:         j.Population,
			Nodes:       sum.Nodes,
			Cores:       sum.Nodes * collector.CoresPerNode,
			Submit:      j.Submit,
			Start:       j.Start,
			WallSeconds: sum.WallSeconds,
			ExitCode:    j.ExitCode,
			Summary:     sum,
		}, nil
	})
	if err != nil {
		csp.End()
		return nil, err
	}
	if timed {
		csp.AddTimed("collect", time.Duration(collectNS.Load())).SetAttr("timing", "worker-summed busy")
		csp.AddTimed("summarize", time.Duration(summarizeNS.Load())).SetAttr("timing", "worker-summed busy")
	}
	csp.SetAttr("jobs", len(jobs))
	csp.End()

	isp := sp.Child("ingest")
	store := warehouse.NewStore()
	for _, rec := range records {
		if err := store.Ingest(rec); err != nil {
			return nil, err
		}
	}
	isp.SetAttr("records", len(records))
	isp.End()
	cfg.Obs.Log.Debug("pipeline: complete", "jobs", len(records))
	return &PipelineResult{Records: records, Store: store}, nil
}

// LabelFunc maps a warehouse record to a training label; returning false
// skips the record.
type LabelFunc func(*warehouse.Record) (string, bool)

// LabelByLariat labels jobs with their Lariat application name, skipping
// Uncategorized and NA jobs -- exactly the labeled population the paper
// trains on.
func LabelByLariat(r *warehouse.Record) (string, bool) {
	return r.AppLabel, !r.Unlabeled()
}

// LabelByCategory labels jobs with the broad category of their Lariat
// application (derived once, when the record was built), skipping
// unlabeled jobs.
func LabelByCategory(r *warehouse.Record) (string, bool) {
	return r.Category, !r.Unlabeled()
}

// LabelByExit labels jobs "success"/"failure" from the script exit code.
func LabelByExit(r *warehouse.Record) (string, bool) {
	if r.ExitCode == 0 {
		return "success", true
	}
	return "failure", true
}

// BuildDataset featurizes records under a labeling function.
func BuildDataset(records []*warehouse.Record, label LabelFunc, opt FeatureOptions) (*dataset.Dataset, error) {
	names := FeatureNames(opt)
	var rows [][]float64
	var labels []string
	for _, r := range records {
		l, ok := label(r)
		if !ok {
			continue
		}
		rows = append(rows, Featurize(r.Summary, opt))
		labels = append(labels, l)
	}
	return dataset.New(names, rows, labels)
}

// FeaturizeAll returns raw feature rows for records (for unlabeled
// populations: a dataset of rows alone is what JobClassifier.Score and
// the discovery fit take).
func FeaturizeAll(records []*warehouse.Record, opt FeatureOptions) [][]float64 {
	rows := make([][]float64, len(records))
	for i, r := range records {
		rows[i] = Featurize(r.Summary, opt)
	}
	return rows
}
