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
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/warehouse"
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
	// Wall is how long the driver ran, stamped by RunSelected.
	Wall time.Duration
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

// Env holds the generated datasets and trained models shared by the
// experiment drivers. Every member is built on first use, once, and
// deterministically from Config.Seed.
type Env struct {
	Cfg Config

	appData  func() (trainTest, error)
	catData  func() (trainTest, error)
	pools    func() (unknownPools, error)
	native   func() (*core.PipelineResult, error)
	segments func() (segmentData, error)

	appSVM, appRF, catSVM func() (*core.JobClassifier, error)
}

// trainTest is a training set and the test set aligned to its classes.
type trainTest struct{ train, test *dataset.Dataset }

// unknownPools holds the Uncategorized and NA populations' feature rows.
type unknownPools struct{ uncat, na [][]float64 }

// segmentData pairs segment-feature and mean-feature datasets built from
// the same jobs and split identically (X1).
type segmentData struct{ segTrain, segTest, meanTrain, meanTest *dataset.Dataset }

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
	e := &Env{Cfg: cfg}
	t2 := apps.Table2Apps()
	e.appData = e.trainTestOnce("env.appdata", core.LabelByLariat,
		communityPipeline(cfg.Seed+1, 20*cfg.TrainPerClass, balancedApps(t2)),
		communityPipeline(cfg.Seed+2, cfg.TestJobs, t2))
	e.catData = e.trainTestOnce("env.catdata", core.LabelByCategory,
		communityPipeline(cfg.Seed+3, 12*2*cfg.TrainPerClass, categoryBalancedApps()),
		communityPipeline(cfg.Seed+4, cfg.TestJobs, apps.Catalog()))
	e.pools = sync.OnceValues(e.buildUnknownPools)
	e.native = sync.OnceValues(e.buildNativeRun)
	e.segments = sync.OnceValues(e.buildSegmentData)
	e.appSVM = e.trainOnce("env.appsvm", e.appData, core.PaperSVM)
	e.appRF = e.trainOnce("env.apprf", e.appData, core.PaperForest)
	e.catSVM = e.trainOnce("env.catsvm", e.catData, core.PaperSVM)
	return e
}

// trainOnce returns a memoised trainer: its first call fits model(seed)
// on data's training set under a span called name.
func (e *Env) trainOnce(name string, data func() (trainTest, error), model func(seed uint64) core.ClassifierConfig) func() (*core.JobClassifier, error) {
	return sync.OnceValues(func() (*core.JobClassifier, error) {
		d, err := data()
		if err != nil {
			return nil, err
		}
		sp, _ := e.stage(name)
		defer sp.End()
		cfg := model(e.Cfg.Seed)
		cfg.Span = sp
		return core.TrainJobClassifier(d.train, cfg)
	})
}

// AppSVM trains (once) the paper-configured SVM (RBF gamma=0.1, C=1000)
// on the balanced application mixture.
func (e *Env) AppSVM() (*core.JobClassifier, error) { return e.appSVM() }

// AppRF trains (once) the random forest on the balanced application
// mixture.
func (e *Env) AppRF() (*core.JobClassifier, error) { return e.appRF() }

// CategorySVM trains (once) the SVM on the category-balanced mixture.
func (e *Env) CategorySVM() (*core.JobClassifier, error) { return e.catSVM() }

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

// buildDataset is core.BuildDataset under a child span of ins.Span
// called "featurize".
func buildDataset(ins core.Instrumentation, records []*warehouse.Record, label core.LabelFunc, opt core.FeatureOptions) (*dataset.Dataset, error) {
	sp := ins.Span.Child("featurize")
	defer sp.End()
	ds, err := core.BuildDataset(records, label, opt)
	if err == nil {
		sp.SetAttr("rows", ds.Len())
		sp.SetAttr("features", len(ds.FeatureNames))
	}
	return ds, err
}

// pipelineDataset runs cfg (span name) and featurizes the labeled part of
// its records (span "featurize", a sibling of the pipeline's).
func pipelineDataset(ins core.Instrumentation, name string, cfg core.PipelineConfig, label core.LabelFunc) (*dataset.Dataset, error) {
	run, err := runPipeline(ins, name, cfg)
	if err != nil {
		return nil, err
	}
	return buildDataset(ins, run.Records, label, core.DefaultFeatures())
}

// trainTestOnce returns a memoised builder: its first call runs the two
// pipelines under a span called stage and featurizes them into a
// training set and a test set, the test vocabulary aligned with
// training's classes.
func (e *Env) trainTestOnce(stage string, label core.LabelFunc, trainCfg, testCfg core.PipelineConfig) func() (trainTest, error) {
	return sync.OnceValues(func() (trainTest, error) {
		sp, ins := e.stage(stage)
		defer sp.End()
		train, err := pipelineDataset(ins, "pipeline.train", trainCfg, label)
		if err != nil {
			return trainTest{}, err
		}
		test, err := pipelineDataset(ins, "pipeline.test", testCfg, label)
		if err != nil {
			return trainTest{}, err
		}
		return trainTest{train, alignClasses(test, train.ClassNames)}, nil
	})
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
	d, err := e.appData()
	return d.train, d.test, err
}

// CategoryData generates (once) category-balanced training and native test
// sets over the full catalogue, labeled by broad category.
func (e *Env) CategoryData() (train, test *dataset.Dataset, err error) {
	d, err := e.catData()
	return d.train, d.test, err
}

// UnknownPools generates (once) the Uncategorized and NA feature rows.
func (e *Env) UnknownPools() (uncat, na [][]float64, err error) {
	p, err := e.pools()
	return p.uncat, p.na, err
}

func (e *Env) buildUnknownPools() (p unknownPools, err error) {
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
		fsp := ins.Span.Child("featurize")
		defer fsp.End()
		rows := core.FeaturizeAll(run.Records, core.DefaultFeatures())
		fsp.SetAttr("rows", len(rows))
		return rows, nil
	}
	if p.uncat, err = pool("pipeline.uncategorized", e.Cfg.Seed+5, 1, 0); err != nil {
		return unknownPools{}, err
	}
	if p.na, err = pool("pipeline.na", e.Cfg.Seed+6, 0, 1); err != nil {
		return unknownPools{}, err
	}
	return p, nil
}

// NativeRun generates (once) a native community run for the Section II
// experiments (efficiency + exit-code labels).
func (e *Env) NativeRun() (*core.PipelineResult, error) { return e.native() }

func (e *Env) buildNativeRun() (*core.PipelineResult, error) {
	sp, ins := e.stage("env.native")
	defer sp.End()
	return runPipeline(ins, "pipeline.native",
		communityPipeline(e.Cfg.Seed+7, e.Cfg.TestJobs, apps.Catalog()))
}

// SegmentData generates (once) paired mean-feature and segment-feature
// datasets from the same jobs (X1).
func (e *Env) SegmentData() (segTrain, segTest, meanTrain, meanTest *dataset.Dataset, err error) {
	d, err := e.segments()
	return d.segTrain, d.segTest, d.meanTrain, d.meanTest, err
}

func (e *Env) buildSegmentData() (d segmentData, err error) {
	sp, ins := e.stage("env.segments")
	defer sp.End()
	cfg := communityPipeline(e.Cfg.Seed+8, 20*e.Cfg.TrainPerClass, balancedApps(apps.Table2Apps()))
	cfg.Segments = 3
	run, err := runPipeline(ins, "pipeline.segments", cfg)
	if err != nil {
		return d, err
	}
	segOpt := core.FeatureOptions{COV: true, Derived: true, Segments: 3}
	segDS, err := buildDataset(ins, run.Records, core.LabelByLariat, segOpt)
	if err != nil {
		return d, err
	}
	meanDS, err := buildDataset(ins, run.Records, core.LabelByLariat, core.DefaultFeatures())
	if err != nil {
		return d, err
	}
	r := rngSplit(e.Cfg.Seed + 8)
	d.segTrain, d.segTest = segDS.Split(r, 0.7)
	r2 := rngSplit(e.Cfg.Seed + 8) // identical split for the mean twin
	d.meanTrain, d.meanTest = meanDS.Split(r2, 0.7)
	return d, nil
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

// scoreParallel is c.Score(d) with the rows spread over all cores.
func scoreParallel(c *core.JobClassifier, d *dataset.Dataset) []eval.Prediction {
	preds := make([]eval.Prediction, d.Len())
	// Per-row prediction is pure, so a plain ordered fan-out suffices.
	_ = parallel.ForEach(0, d.Len(), func(i int) error {
		preds[i] = c.ScoreRow(d, i)
		return nil
	})
	return preds
}

// scoreRowsParallel scores rows that have no ground truth.
func scoreRowsParallel(c *core.JobClassifier, rows [][]float64) []eval.Prediction {
	return scoreParallel(c, &dataset.Dataset{X: rows})
}
