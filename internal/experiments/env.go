// Package experiments contains one driver per table and figure of the
// paper's evaluation, each regenerating the corresponding rows or series
// from a freshly generated synthetic Stampede workload. Scales default to
// sizes that run the full suite in minutes; the paper's absolute counts
// (100k-job training sets) are reachable by raising the Config fields.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// rngSplit returns a fresh deterministic generator for a sub-task.
func rngSplit(seed uint64) *rng.Rand { return rng.New(seed ^ 0xe9b2e5) }

// Config scales the experiment suite.
type Config struct {
	Seed uint64

	// TrainPerClass is the number of training jobs generated per
	// application for the balanced training mixture (paper: 5000/class).
	TrainPerClass int
	// TestJobs is the native-mix test set size (paper: 100000).
	TestJobs int
	// UnknownJobs is the size of each of the Uncategorized and NA pools
	// scored in Figures 3 and 4.
	UnknownJobs int
	// SweepCounts are the predictor counts retrained in Figure 6
	// (empty = a default descending grid).
	SweepCounts []int
	// Workers bounds parallel scoring (0 = GOMAXPROCS).
	Workers int

	// Obs carries optional metrics/tracing/logging through every dataset
	// build and experiment; the zero value is a no-op and results stay
	// bit-identical either way.
	Obs core.Instrumentation
}

// DefaultConfig returns the fast-run scale documented in EXPERIMENTS.md.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		TrainPerClass: 300,
		TestJobs:      4000,
		UnknownJobs:   1200,
	}
}

// Result is one experiment's regenerated artifact: formatted lines in the
// paper's layout plus named scalar metrics for programmatic comparison.
type Result struct {
	ID      string
	Title   string
	Lines   []string
	Metrics map[string]float64
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Metrics: map[string]float64{}}
}

func (r *Result) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the result for terminal output.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Env holds the generated datasets shared by the experiment drivers. All
// members are produced deterministically from Config.Seed.
type Env struct {
	Cfg Config

	once struct {
		appData  sync.Once
		catData  sync.Once
		pools    sync.Once
		native   sync.Once
		segments sync.Once
	}

	// Application-classification data (Table 2 apps).
	appTrain *dataset.Dataset // balanced mixture, LabelByLariat
	appTest  *dataset.Dataset // native mix
	appErr   error

	// Category-classification data (full catalogue).
	catTrain *dataset.Dataset
	catTest  *dataset.Dataset
	catErr   error

	// Unknown-population features.
	uncatRows [][]float64
	naRows    [][]float64
	poolErr   error

	// Native community run with populations + exit codes (Section II).
	nativeRun *core.PipelineResult
	nativeErr error

	// Segment-feature data (X1).
	segTrain, segTest   *dataset.Dataset
	meanTrain, meanTest *dataset.Dataset
	segErr              error

	// Cached trained models over the shared datasets.
	svmOnce  sync.Once
	svmModel *core.JobClassifier
	svmErr   error
	rfOnce   sync.Once
	rfModel  *core.JobClassifier
	rfErr    error
	catOnce  sync.Once
	catModel *core.JobClassifier
	catMErr  error
}

// AppSVM trains (once) the paper-configured SVM (RBF gamma=0.1, C=1000)
// on the balanced application mixture.
func (e *Env) AppSVM() (*core.JobClassifier, error) {
	e.svmOnce.Do(func() {
		train, _, err := e.AppData()
		if err != nil {
			e.svmErr = err
			return
		}
		sp, _ := e.stage("env.appsvm")
		defer sp.End()
		cfg := core.PaperSVM(e.Cfg.Seed)
		cfg.Span = sp
		e.svmModel, e.svmErr = core.TrainJobClassifier(train, cfg)
	})
	return e.svmModel, e.svmErr
}

// AppRF trains (once) the random forest on the balanced application
// mixture.
func (e *Env) AppRF() (*core.JobClassifier, error) {
	e.rfOnce.Do(func() {
		train, _, err := e.AppData()
		if err != nil {
			e.rfErr = err
			return
		}
		sp, _ := e.stage("env.apprf")
		defer sp.End()
		cfg := core.PaperForest(e.Cfg.Seed)
		cfg.Span = sp
		e.rfModel, e.rfErr = core.TrainJobClassifier(train, cfg)
	})
	return e.rfModel, e.rfErr
}

// CategorySVM trains (once) the SVM on the category-balanced mixture.
func (e *Env) CategorySVM() (*core.JobClassifier, error) {
	e.catOnce.Do(func() {
		train, _, err := e.CategoryData()
		if err != nil {
			e.catMErr = err
			return
		}
		sp, _ := e.stage("env.catsvm")
		defer sp.End()
		cfg := core.PaperSVM(e.Cfg.Seed)
		cfg.Span = sp
		e.catModel, e.catMErr = core.TrainJobClassifier(train, cfg)
	})
	return e.catModel, e.catMErr
}

// stage opens a child span under the suite span for one lazily-built
// environment dataset; the returned Instrumentation is bound to it.
func (e *Env) stage(name string) (*obs.Span, core.Instrumentation) {
	sp := e.Cfg.Obs.Span.Child(name)
	ins := e.Cfg.Obs
	ins.Span = sp
	return sp, ins
}

// runPipeline runs cfg under a child span of ins.Span called name, with
// the stage's metrics and logger bound.
func runPipeline(ins core.Instrumentation, name string, cfg core.PipelineConfig) (*core.PipelineResult, error) {
	cfg.Obs = ins
	cfg.Obs.Span = ins.Span.Child(name)
	defer cfg.Obs.Span.End()
	return core.RunPipeline(cfg)
}

// pipelineDataset runs cfg (span name) and featurizes the labeled part of
// its records (span "featurize", a sibling of the pipeline's).
func pipelineDataset(ins core.Instrumentation, name string, cfg core.PipelineConfig, label core.LabelFunc) (*dataset.Dataset, error) {
	run, err := runPipeline(ins, name, cfg)
	if err != nil {
		return nil, err
	}
	return core.BuildDatasetObs(ins, run.Records, label, core.DefaultFeatures())
}

// trainTestData builds a training set and a test set from two pipeline
// runs, the test vocabulary aligned with training's classes.
func trainTestData(ins core.Instrumentation, label core.LabelFunc, trainCfg, testCfg core.PipelineConfig) (train, test *dataset.Dataset, err error) {
	if train, err = pipelineDataset(ins, "pipeline.train", trainCfg, label); err != nil {
		return nil, nil, err
	}
	if test, err = pipelineDataset(ins, "pipeline.test", testCfg, label); err != nil {
		return nil, nil, err
	}
	return train, alignClasses(test, train.ClassNames), nil
}

// NewEnv returns an experiment environment; datasets generate lazily.
func NewEnv(cfg Config) *Env {
	if cfg.TrainPerClass <= 0 {
		cfg.TrainPerClass = 300
	}
	if cfg.TestJobs <= 0 {
		cfg.TestJobs = 4000
	}
	if cfg.UnknownJobs <= 0 {
		cfg.UnknownJobs = 1200
	}
	return &Env{Cfg: cfg}
}

// balancedApps returns the Table 2 application list with equal mix
// weights, the generator-side realization of the paper's
// "application-balanced mixture".
func balancedApps(list []apps.App) []apps.App {
	out := append([]apps.App(nil), list...)
	for i := range out {
		out[i].MixWeight = 1
	}
	return out
}

// categoryBalancedApps reweights the full catalogue so every broad
// category carries equal total weight (apps within a category keep their
// relative shares).
func categoryBalancedApps() []apps.App {
	catTotal := map[apps.Category]float64{}
	for _, a := range apps.Catalog() {
		catTotal[a.Category] += a.MixWeight
	}
	out := append([]apps.App(nil), apps.Catalog()...)
	for i := range out {
		out[i].MixWeight = out[i].MixWeight / catTotal[out[i].Category]
	}
	return out
}

// communityPipeline configures a run of n jobs drawn from the given
// community mix, with no Uncategorized/NA jobs.
func communityPipeline(seed uint64, n int, community []apps.App) core.PipelineConfig {
	cfg := core.DefaultPipelineConfig(seed, n)
	cfg.Cluster.UncategorizedFrac = 0
	cfg.Cluster.NAFrac = 0
	cfg.Cluster.Community = community
	return cfg
}

// AppData generates (once) the balanced training set and native-mix test
// set over the 20 Table 2 applications.
func (e *Env) AppData() (train, test *dataset.Dataset, err error) {
	e.once.appData.Do(func() {
		sp, ins := e.stage("env.appdata")
		defer sp.End()
		t2 := apps.Table2Apps()
		e.appTrain, e.appTest, e.appErr = trainTestData(ins, core.LabelByLariat,
			communityPipeline(e.Cfg.Seed+1, 20*e.Cfg.TrainPerClass, balancedApps(t2)),
			communityPipeline(e.Cfg.Seed+2, e.Cfg.TestJobs, t2))
	})
	return e.appTrain, e.appTest, e.appErr
}

// CategoryData generates (once) category-balanced training and native test
// sets over the full catalogue, labeled by broad category.
func (e *Env) CategoryData() (train, test *dataset.Dataset, err error) {
	e.once.catData.Do(func() {
		sp, ins := e.stage("env.catdata")
		defer sp.End()
		e.catTrain, e.catTest, e.catErr = trainTestData(ins, core.LabelByCategory,
			communityPipeline(e.Cfg.Seed+3, 12*2*e.Cfg.TrainPerClass, categoryBalancedApps()),
			communityPipeline(e.Cfg.Seed+4, e.Cfg.TestJobs, apps.Catalog()))
	})
	return e.catTrain, e.catTest, e.catErr
}

// UnknownPools generates (once) the Uncategorized and NA feature rows.
func (e *Env) UnknownPools() (uncat, na [][]float64, err error) {
	e.once.pools.Do(func() {
		sp, ins := e.stage("env.unknownpools")
		defer sp.End()
		pool := func(name string, seed uint64, uncatFrac, naFrac float64) ([][]float64, error) {
			cfg := core.DefaultPipelineConfig(seed, e.Cfg.UnknownJobs)
			cfg.Cluster.UncategorizedFrac = uncatFrac
			cfg.Cluster.NAFrac = naFrac
			run, err := runPipeline(ins, name, cfg)
			if err != nil {
				return nil, err
			}
			return core.FeaturizeAllObs(ins, run.Records, core.DefaultFeatures()), nil
		}
		if e.uncatRows, e.poolErr = pool("pipeline.uncategorized", e.Cfg.Seed+5, 1, 0); e.poolErr != nil {
			return
		}
		e.naRows, e.poolErr = pool("pipeline.na", e.Cfg.Seed+6, 0, 1)
	})
	return e.uncatRows, e.naRows, e.poolErr
}

// NativeRun generates (once) a native community run for the Section II
// experiments (efficiency + exit-code labels).
func (e *Env) NativeRun() (*core.PipelineResult, error) {
	e.once.native.Do(func() {
		sp, ins := e.stage("env.native")
		defer sp.End()
		e.nativeRun, e.nativeErr = runPipeline(ins, "pipeline.native",
			communityPipeline(e.Cfg.Seed+7, e.Cfg.TestJobs, apps.Catalog()))
	})
	return e.nativeRun, e.nativeErr
}

// SegmentData generates (once) paired mean-feature and segment-feature
// datasets from the same jobs (X1).
func (e *Env) SegmentData() (segTrain, segTest, meanTrain, meanTest *dataset.Dataset, err error) {
	e.once.segments.Do(func() {
		sp, ins := e.stage("env.segments")
		defer sp.End()
		cfg := communityPipeline(e.Cfg.Seed+8, 20*e.Cfg.TrainPerClass, balancedApps(apps.Table2Apps()))
		cfg.Segments = 3
		run, err := runPipeline(ins, "pipeline.segments", cfg)
		if err != nil {
			e.segErr = err
			return
		}
		segOpt := core.FeatureOptions{COV: true, Derived: true, Segments: 3}
		segDS, err := core.BuildDatasetObs(ins, run.Records, core.LabelByLariat, segOpt)
		if err != nil {
			e.segErr = err
			return
		}
		meanDS, err := core.BuildDatasetObs(ins, run.Records, core.LabelByLariat, core.DefaultFeatures())
		if err != nil {
			e.segErr = err
			return
		}
		r := rngSplit(e.Cfg.Seed + 8)
		e.segTrain, e.segTest = segDS.Split(r, 0.7)
		r2 := rngSplit(e.Cfg.Seed + 8) // identical split for the mean twin
		e.meanTrain, e.meanTest = meanDS.Split(r2, 0.7)
	})
	return e.segTrain, e.segTest, e.meanTrain, e.meanTest, e.segErr
}

// alignClasses re-labels a dataset onto a target class vocabulary (which
// must contain every label present).
func alignClasses(d *dataset.Dataset, classes []string) *dataset.Dataset {
	index := map[string]int{}
	for i, c := range classes {
		index[c] = i
	}
	y := make([]int, d.Len())
	for i := range d.Y {
		y[i] = index[d.Label(i)]
	}
	return &dataset.Dataset{
		FeatureNames: d.FeatureNames,
		ClassNames:   classes,
		X:            d.X,
		Y:            y,
	}
}

// scoreParallel is c.Score(d) with the rows spread over workers.
func scoreParallel(c *core.JobClassifier, d *dataset.Dataset, workers int) []eval.Prediction {
	preds := make([]eval.Prediction, d.Len())
	// Per-row prediction is pure, so a plain ordered fan-out suffices.
	_ = parallel.ForEach(workers, d.Len(), func(i int) error {
		preds[i] = c.ScoreRow(d, i)
		return nil
	})
	return preds
}

// scoreRowsParallel scores rows that have no ground truth.
func scoreRowsParallel(c *core.JobClassifier, rows [][]float64, workers int) []eval.Prediction {
	return scoreParallel(c, &dataset.Dataset{X: rows}, workers)
}
