// Command supremm-bench is the bench-regression and correctness gate for
// the parallel harness. It runs a fixed seeded workload through the
// serial path (one worker, one core) and the parallel path (all cores),
// measures wall time, jobs/sec and speedup, and verifies the two paths
// produce bit-identical results: pipeline feature digests, fold-mean
// cross-validation accuracy, forest OOB error and permutation importance,
// SVM posteriors, and every experiment's metrics and rendered lines.
//
// It writes BENCH_<rev>.json to -out and exits non-zero if any
// serial/parallel pair diverges, which is what CI relies on.
//
// Usage:
//
//	supremm-bench [-seed N] [-jobs N] [-exp id,id,...] [-train N] [-test N]
//	              [-unknown N] [-trees N] [-out DIR] [-rev REV] [-skip-suite]
//	              [-min-speedup X]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/ml/eval"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// section is one serial-vs-parallel comparison in the report.
type section struct {
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	Parity     bool    `json:"parity"`
	Detail     string  `json:"detail,omitempty"`
}

func (s *section) finish(serial, par time.Duration, parity bool, detail string) {
	s.SerialMS = float64(serial.Microseconds()) / 1000
	s.ParallelMS = float64(par.Microseconds()) / 1000
	if par > 0 {
		s.Speedup = serial.Seconds() / par.Seconds()
	}
	s.Parity = parity
	s.Detail = detail
}

type report struct {
	Rev         string   `json:"rev"`
	Seed        uint64   `json:"seed"`
	GoVersion   string   `json:"go_version"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"num_cpu"`
	Jobs        int      `json:"jobs"`
	JobsPerSec  float64  `json:"jobs_per_sec"`
	Experiments []string `json:"experiments,omitempty"`
	Pipeline    section  `json:"pipeline"`
	CrossVal    section  `json:"crossval"`
	Forest      section  `json:"forest"`
	SVM         section  `json:"svm"`
	Suite       *section `json:"suite,omitempty"`
	// Compiled holds the compiled-vs-interpreted inference engine legs
	// (one per paper algorithm); the CI bench gate holds their Speedup
	// ratios above the -min-speedup floor.
	Compiled []compiledLeg `json:"compiled,omitempty"`
	Obs      *obsDump      `json:"obs,omitempty"`
	OK       bool          `json:"ok"`
}

// obsDump embeds the instrumented parallel legs' observability state:
// per-stage wall timings summed over the trace tree plus every registry
// series (pool gauges/histograms, pipeline stage histograms).
type obsDump struct {
	StageWallMS map[string]float64   `json:"stage_wall_ms"`
	Metrics     []obs.SeriesSnapshot `json:"metrics"`
}

// stageWall sums wall milliseconds by span name across the trace tree.
func stageWall(t *obs.TraceNode) map[string]float64 {
	out := map[string]float64{}
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		out[n.Name] += n.WallMS
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t)
	return out
}

func main() {
	seed := flag.Uint64("seed", 2014, "master random seed")
	jobs := flag.Int("jobs", 2000, "pipeline workload size")
	exp := flag.String("exp", "e1,e2,table2,fig1,fig2", "experiment ids for the suite comparison")
	train := flag.Int("train", 30, "suite training jobs per class")
	test := flag.Int("test", 500, "suite native-mix test jobs")
	unknown := flag.Int("unknown", 250, "suite jobs per unknown pool")
	trees := flag.Int("trees", 100, "forest size for the CV / importance checks")
	out := flag.String("out", ".", "output directory for BENCH_<rev>.json")
	rev := flag.String("rev", "", "revision tag for the output name (default: GITHUB_SHA or 'dev')")
	skipSuite := flag.Bool("skip-suite", false, "skip the experiment-suite comparison")
	minSpeedup := flag.Float64("min-speedup", 1.0, "compiled-vs-interpreted speedup floor per algorithm")
	flag.Parse()

	r := report{
		Rev:        resolveRev(*rev),
		Seed:       *seed,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Jobs:       *jobs,
	}

	// Spans and stage metrics go on the parallel legs only, while the
	// serial baselines run with zero Instrumentation (the process-wide
	// pool gauges see both legs). Every parity check below therefore
	// doubles as proof that instrumentation leaves results bit-identical.
	reg := obs.NewRegistry()
	root := obs.NewSpan("bench")
	parallel.Instrument(reg)

	// --- Pipeline: generation + collection + summarization ---------------
	fmt.Fprintf(os.Stderr, "pipeline: %d jobs, serial...\n", *jobs)
	serialStart := time.Now()
	serialRun := runPipeline(*seed, *jobs, 1, core.Instrumentation{})
	serialDur := time.Since(serialStart)
	fmt.Fprintf(os.Stderr, "pipeline: parallel on %d cores...\n", r.GoMaxProcs)
	psp := root.Child("pipeline")
	parStart := time.Now()
	parRun := runPipeline(*seed, *jobs, 0, core.Instrumentation{Span: psp, Metrics: reg})
	parDur := time.Since(parStart)
	psp.End()
	sd, pd := pipelineDigest(serialRun), pipelineDigest(parRun)
	detail := ""
	if sd != pd {
		detail = fmt.Sprintf("feature digests differ: serial %x vs parallel %x", sd, pd)
	}
	r.Pipeline.finish(serialDur, parDur, sd == pd, detail)
	r.JobsPerSec = float64(*jobs) / parDur.Seconds()

	ds, err := core.BuildDataset(parRun.Records, core.LabelByLariat, core.DefaultFeatures())
	if err != nil {
		fatal("build dataset: %v", err)
	}

	// --- Cross-validation fold fan-out -----------------------------------
	fmt.Fprintln(os.Stderr, "crossval: 4 folds, serial vs parallel...")
	cvTrain := func(workers int) eval.TrainFunc {
		return func(tr *dataset.Dataset) (eval.ProbClassifier, error) {
			return forest.TrainClassifier(tr, forest.Config{Trees: *trees, Seed: *seed, Workers: workers})
		}
	}
	cvSerialStart := time.Now()
	cvSerial, err := eval.CrossValidateWorkers(ds, 4, *seed, 1, cvTrain(1))
	if err != nil {
		fatal("serial crossval: %v", err)
	}
	cvSerialDur := time.Since(cvSerialStart)
	cvsp := root.Child("crossval")
	cvParStart := time.Now()
	cvPar, err := eval.CrossValidateObs(cvsp, ds, 4, *seed, 0, cvTrain(0))
	if err != nil {
		fatal("parallel crossval: %v", err)
	}
	cvParDur := time.Since(cvParStart)
	cvsp.End()
	detail = ""
	if cvSerial != cvPar {
		detail = fmt.Sprintf("fold-mean accuracy diverged: serial %.17g vs parallel %.17g", cvSerial, cvPar)
	}
	r.CrossVal.finish(cvSerialDur, cvParDur, cvSerial == cvPar, detail)

	// --- Forest: per-tree training + permutation importance --------------
	fmt.Fprintln(os.Stderr, "forest: train + importance, serial vs parallel...")
	fSerialStart := time.Now()
	fSerial, err := forest.TrainClassifier(ds, forest.Config{Trees: *trees, Seed: *seed, Workers: 1})
	if err != nil {
		fatal("serial forest: %v", err)
	}
	impSerial := fSerial.Importance()
	fSerialDur := time.Since(fSerialStart)
	fsp := root.Child("forest")
	fParStart := time.Now()
	fPar, err := forest.TrainClassifier(ds, forest.Config{Trees: *trees, Seed: *seed, Span: fsp})
	if err != nil {
		fatal("parallel forest: %v", err)
	}
	impPar := fPar.Importance()
	fParDur := time.Since(fParStart)
	fsp.End()
	detail = compareForest(fSerial, fPar, impSerial, impPar)
	r.Forest.finish(fSerialDur, fParDur, detail == "", detail)

	// --- SVM: one-vs-one pair fan-out + calibrated posteriors ------------
	fmt.Fprintln(os.Stderr, "svm: pair training, serial vs parallel...")
	svmData := sample(ds, 400)
	probe := svmData.X
	if len(probe) > 200 {
		probe = probe[:200]
	}
	svmCfg := svm.PaperConfig()
	svmCfg.Seed = *seed
	sSerialStart := time.Now()
	svmCfg.Workers = 1
	mSerial, err := svm.Train(svmData, svmCfg)
	if err != nil {
		fatal("serial svm: %v", err)
	}
	sSerialDur := time.Since(sSerialStart)
	ssp := root.Child("svm")
	sParStart := time.Now()
	svmCfg.Workers = 0
	svmCfg.Span = ssp
	mPar, err := svm.Train(svmData, svmCfg)
	if err != nil {
		fatal("parallel svm: %v", err)
	}
	sParDur := time.Since(sParStart)
	ssp.End()
	detail = compareSVM(mSerial, mPar, probe)
	r.SVM.finish(sSerialDur, sParDur, detail == "", detail)

	// --- Experiment suite -------------------------------------------------
	if !*skipSuite {
		ids := splitIDs(*exp)
		r.Experiments = ids
		cfg := experiments.Config{
			Seed:          *seed,
			TrainPerClass: *train,
			TestJobs:      *test,
			UnknownJobs:   *unknown,
		}
		// The serial leg is the pre-harness baseline: one experiment at a
		// time on a single core.
		fmt.Fprintf(os.Stderr, "suite [%s]: serial on 1 core...\n", strings.Join(ids, ","))
		old := runtime.GOMAXPROCS(1)
		suiteSerialStart := time.Now()
		serialRes, err := experiments.RunSelected(experiments.NewEnv(cfg), ids, 1)
		suiteSerialDur := time.Since(suiteSerialStart)
		runtime.GOMAXPROCS(old)
		if err != nil {
			fatal("serial suite: %v", err)
		}
		fmt.Fprintf(os.Stderr, "suite: parallel on %d cores...\n", old)
		stsp := root.Child("suite")
		pcfg := cfg
		pcfg.Obs = core.Instrumentation{Span: stsp, Metrics: reg}
		suiteParStart := time.Now()
		parRes, err := experiments.RunSelected(experiments.NewEnv(pcfg), ids, 0)
		suiteParDur := time.Since(suiteParStart)
		stsp.End()
		if err != nil {
			fatal("parallel suite: %v", err)
		}
		detail = compareSuites(serialRes, parRes)
		s := &section{}
		s.finish(suiteSerialDur, suiteParDur, detail == "", detail)
		r.Suite = s
	}

	// --- Compiled inference engine ----------------------------------------
	r.Compiled = runCompiledLegs(ds, *seed, *trees)

	r.OK = r.Pipeline.Parity && r.CrossVal.Parity && r.Forest.Parity && r.SVM.Parity &&
		(r.Suite == nil || r.Suite.Parity)
	for _, leg := range r.Compiled {
		r.OK = r.OK && leg.Parity
	}

	root.End()
	tree := root.Tree()
	r.Obs = &obsDump{StageWallMS: stageWall(tree), Metrics: reg.Snapshot()}
	tracePath := filepath.Join(*out, "BENCH_TRACE_"+r.Rev+".json")
	tf, err := os.Create(tracePath)
	if err != nil {
		fatal("write trace: %v", err)
	}
	if err := root.WriteJSON(tf); err != nil {
		fatal("write trace: %v", err)
	}
	if err := tf.Close(); err != nil {
		fatal("write trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", tracePath)

	path := filepath.Join(*out, "BENCH_"+r.Rev+".json")
	buf, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		fatal("marshal report: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fatal("write report: %v", err)
	}
	os.Stdout.Write(buf)
	if !r.OK {
		fmt.Fprintln(os.Stderr, "supremm-bench: serial and parallel paths diverged")
		os.Exit(1)
	}
	// The baseline-free perf floor: a ratio, so portable across machines;
	// commit-to-commit regressions are the BENCHMARK.json run's job.
	for _, leg := range r.Compiled {
		if leg.Speedup < *minSpeedup {
			fatal("bench gate: %s: compiled speedup %.2fx below the %.2fx floor", leg.Algo, leg.Speedup, *minSpeedup)
		}
	}
	fmt.Fprintf(os.Stderr, "supremm-bench: all parity checks passed, report at %s\n", path)
}

func runPipeline(seed uint64, jobs, workers int, ins core.Instrumentation) *core.PipelineResult {
	cfg := core.DefaultPipelineConfig(seed, jobs)
	cfg.Workers = workers
	cfg.Obs = ins
	res, err := core.RunPipeline(cfg)
	if err != nil {
		fatal("pipeline (workers=%d): %v", workers, err)
	}
	return res
}

// pipelineDigest hashes every job's id, label and featurized summary, so
// any numeric divergence between runs shows up as a digest mismatch.
func pipelineDigest(res *core.PipelineResult) uint64 {
	h := fnv.New64a()
	rows := core.FeaturizeAll(res.Records, core.DefaultFeatures())
	var b [8]byte
	for i, rec := range res.Records {
		h.Write([]byte(rec.Job.ID))
		h.Write([]byte(rec.Label))
		for _, v := range rows[i] {
			bits := math.Float64bits(v)
			for k := 0; k < 8; k++ {
				b[k] = byte(bits >> (8 * k))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func compareForest(a, b *forest.Classifier, impA, impB []float64) string {
	if ea, eb := a.OOBError(), b.OOBError(); ea != eb {
		return fmt.Sprintf("OOB error diverged: %.17g vs %.17g", ea, eb)
	}
	for f := range impA {
		if impA[f] != impB[f] {
			return fmt.Sprintf("importance[%d] diverged: %.17g vs %.17g", f, impA[f], impB[f])
		}
	}
	return ""
}

func compareSVM(a, b *svm.Model, rows [][]float64) string {
	for i, row := range rows {
		ca, pa := a.PredictProb(row)
		cb, pb := b.PredictProb(row)
		if ca != cb {
			return fmt.Sprintf("row %d: predicted class diverged: %d vs %d", i, ca, cb)
		}
		for c := range pa {
			if pa[c] != pb[c] {
				return fmt.Sprintf("row %d: posterior[%d] diverged: %.17g vs %.17g", i, c, pa[c], pb[c])
			}
		}
	}
	return ""
}

func compareSuites(a, b []*experiments.Result) string {
	for i := range a {
		if a[i].ID != b[i].ID {
			return fmt.Sprintf("result order diverged at %d: %s vs %s", i, a[i].ID, b[i].ID)
		}
		if len(a[i].Metrics) != len(b[i].Metrics) {
			return fmt.Sprintf("%s: metric count diverged: %d vs %d", a[i].ID, len(a[i].Metrics), len(b[i].Metrics))
		}
		for k, va := range a[i].Metrics {
			vb, ok := b[i].Metrics[k]
			if !ok {
				return fmt.Sprintf("%s: metric %q missing from parallel run", a[i].ID, k)
			}
			if va != vb {
				return fmt.Sprintf("%s: metric %q diverged: %.17g vs %.17g", a[i].ID, k, va, vb)
			}
		}
		if la, lb := strings.Join(a[i].Lines, "\n"), strings.Join(b[i].Lines, "\n"); la != lb {
			return fmt.Sprintf("%s: rendered lines diverged", a[i].ID)
		}
	}
	return ""
}

// sample returns an up-to-n row stride sample preserving class coverage.
func sample(d *dataset.Dataset, n int) *dataset.Dataset {
	if d.Len() <= n {
		return d
	}
	stride := (d.Len() + n - 1) / n
	var idx []int
	for i := 0; i < d.Len(); i += stride {
		idx = append(idx, i)
	}
	return d.Subset(idx)
}

func splitIDs(s string) []string {
	var out []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

func resolveRev(flagRev string) string {
	if flagRev != "" {
		return flagRev
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		if len(sha) > 12 {
			sha = sha[:12]
		}
		return sha
	}
	return "dev"
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "supremm-bench: "+format+"\n", args...)
	os.Exit(1)
}
