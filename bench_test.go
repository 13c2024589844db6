// Package repro's top-level benchmarks regenerate every table and figure
// of the paper at benchmark scale (one reduced-size experiment per
// iteration, key result reported as a custom metric), plus ablation
// benches for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Paper-scale numbers come from cmd/supremm-paper; these benches exist to
// (a) regression-track the experiment runtimes and (b) verify the headline
// result of each artifact survives at reduced scale.
package repro

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/ml/eval"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/rng"
)

// benchConfig is the reduced scale used by the per-artifact benches.
func benchConfig(seed uint64) experiments.Config {
	return experiments.Config{
		Seed:          seed,
		TrainPerClass: 40,
		TestJobs:      600,
		UnknownJobs:   300,
		SweepCounts:   []int{36, 10, 5, 1},
	}
}

// runExperiment drives one experiment per iteration and reports a metric.
func runExperiment(b *testing.B, id, metric string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchConfig(uint64(100 + i)))
		driver, ok := experiments.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		res, err := driver(env)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := res.Metrics[metric]; ok {
			b.ReportMetric(v, metric)
		}
	}
}

func BenchmarkExpE1Efficiency(b *testing.B)     { runExperiment(b, "e1", "rf_test") }
func BenchmarkExpE2ExitCode(b *testing.B)       { runExperiment(b, "e2", "rf_test") }
func BenchmarkExpTable2Confusion(b *testing.B)  { runExperiment(b, "table2", "test_accuracy") }
func BenchmarkExpFig1Threshold(b *testing.B)    { runExperiment(b, "fig1", "classified@0.80") }
func BenchmarkExpFig2ROC(b *testing.B)          { runExperiment(b, "fig2", "svm_auc_like") }
func BenchmarkExpFig3Unknown(b *testing.B)      { runExperiment(b, "fig3", "uncat@0.80") }
func BenchmarkExpTable3Categories(b *testing.B) { runExperiment(b, "table3", "overall_accuracy") }
func BenchmarkExpFig4UnknownCat(b *testing.B)   { runExperiment(b, "fig4", "na@0.80") }
func BenchmarkExpFig5Importance(b *testing.B)   { runExperiment(b, "fig5", "imp:MEM_USED") }
func BenchmarkExpFig6Sweep(b *testing.B)        { runExperiment(b, "fig6", "acc:5") }
func BenchmarkExpX1TimeDependent(b *testing.B)  { runExperiment(b, "x1", "segment_accuracy") }
func BenchmarkExpX2KernelRegression(b *testing.B) {
	runExperiment(b, "x2", "svr_r2")
}
func BenchmarkExpX3CrossPlatform(b *testing.B) { runExperiment(b, "x3", "time-shape_cross") }
func BenchmarkExpX4Unsupervised(b *testing.B)  { runExperiment(b, "x4", "category_purity") }

// benchAppData builds a small balanced train / native test pair once.
func benchAppData(b *testing.B, seed uint64, features core.FeatureOptions) (train, test *dataset.Dataset) {
	b.Helper()
	balanced := append([]apps.App(nil), apps.Table2Apps()...)
	for i := range balanced {
		balanced[i].MixWeight = 1
	}
	mk := func(s uint64, jobs int, community []apps.App) *dataset.Dataset {
		cfg := core.DefaultPipelineConfig(s, jobs)
		cc := cluster.DefaultConfig(s)
		cc.UncategorizedFrac, cc.NAFrac = 0, 0
		cc.Community = community
		cfg.Cluster = cc
		res, err := core.RunPipeline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := core.BuildDataset(res.Records, core.LabelByLariat, features)
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	return mk(seed, 800, balanced), mk(seed+1, 600, apps.Table2Apps())
}

// alignTo relabels test onto the training vocabulary.
func alignTo(b *testing.B, test *dataset.Dataset, classes []string) *dataset.Dataset {
	b.Helper()
	index := map[string]int{}
	for i, c := range classes {
		index[c] = i
	}
	y := make([]int, test.Len())
	for i := range test.Y {
		j, ok := index[test.Label(i)]
		if !ok {
			b.Fatalf("class %q missing from training vocabulary", test.Label(i))
		}
		y[i] = j
	}
	return &dataset.Dataset{FeatureNames: test.FeatureNames, ClassNames: classes, X: test.X, Y: y}
}

// BenchmarkAblationCoupling compares the SVM's pairwise-coupled
// probability prediction against raw one-vs-one voting: coupling is what
// enables the paper's threshold analysis, at a prediction-time cost.
func BenchmarkAblationCoupling(b *testing.B) {
	train, test := benchAppData(b, 7, core.DefaultFeatures())
	test = alignTo(b, test, train.ClassNames)
	model, err := core.TrainJobClassifier(train, core.PaperSVM(7))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("voting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			correct := 0
			for j, row := range test.X {
				cls, _ := model.PredictProb(row)
				if cls == test.Y[j] {
					correct++
				}
			}
			b.ReportMetric(float64(correct)/float64(test.Len()), "accuracy")
		}
	})
	b.Run("coupled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			correct, classified := 0, 0
			for j, row := range test.X {
				label, _, ok := model.Classify(row, 0.5)
				if !ok {
					continue
				}
				classified++
				if label == test.ClassNames[test.Y[j]] {
					correct++
				}
			}
			if classified > 0 {
				b.ReportMetric(float64(correct)/float64(classified), "accuracy@0.5")
			}
		}
	})
}

// BenchmarkAblationCOV measures what the across-node COV attributes buy:
// the paper added them and found they made "a real contribution".
func BenchmarkAblationCOV(b *testing.B) {
	for _, tc := range []struct {
		name string
		opt  core.FeatureOptions
	}{
		{"with-cov", core.DefaultFeatures()},
		{"no-cov", core.FeatureOptions{COV: false, Derived: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				train, test := benchAppData(b, uint64(11+i), tc.opt)
				test = alignTo(b, test, train.ClassNames)
				model, err := core.TrainJobClassifier(train, core.PaperForest(11))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(model.Accuracy(test), "accuracy")
			}
		})
	}
}

// BenchmarkAblationBalance compares application-balanced training (the
// paper's choice) against native-mix training, which over-serves VASP and
// starves rare applications.
func BenchmarkAblationBalance(b *testing.B) {
	for _, balancedTrain := range []bool{true, false} {
		name := "balanced"
		if !balancedTrain {
			name = "native"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				community := apps.Table2Apps()
				if balancedTrain {
					community = append([]apps.App(nil), community...)
					for j := range community {
						community[j].MixWeight = 1
					}
				}
				cfg := core.DefaultPipelineConfig(uint64(21+i), 800)
				cc := cluster.DefaultConfig(uint64(21 + i))
				cc.UncategorizedFrac, cc.NAFrac = 0, 0
				cc.Community = community
				cfg.Cluster = cc
				res, err := core.RunPipeline(cfg)
				if err != nil {
					b.Fatal(err)
				}
				train, err := core.BuildDataset(res.Records, core.LabelByLariat, core.DefaultFeatures())
				if err != nil {
					b.Fatal(err)
				}
				_, test := benchAppData(b, uint64(31+i), core.DefaultFeatures())
				test = alignTo(b, test, train.ClassNames)
				model, err := core.TrainJobClassifier(train, core.PaperForest(21))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(model.Accuracy(test), "accuracy")
			}
		})
	}
}

// BenchmarkAblationClassWeights tests the paper's suggestion that
// weighting the classes could ameliorate mixture-share-driven
// misclassification: up-weighting the rare applications against VASP.
func BenchmarkAblationClassWeights(b *testing.B) {
	train, test := benchAppData(b, 71, core.DefaultFeatures())
	test = alignTo(b, test, train.ClassNames)
	for _, weighted := range []bool{false, true} {
		name := "plain"
		weights := map[string]float64(nil)
		if weighted {
			name = "weighted"
			// Up-weight everything against the dominant VASP/NAMD pair.
			weights = map[string]float64{"VASP": 0.5, "NAMD": 0.7}
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := svm.PaperConfig()
				cfg.Probability = false
				cfg.Seed = uint64(i)
				cfg.ClassWeights = weights
				model, err := core.TrainJobClassifier(train, core.ClassifierConfig{Algo: core.AlgoSVM, SVM: cfg})
				if err != nil {
					b.Fatal(err)
				}
				// Report recall on the non-dominant classes.
				minor, correct := 0, 0
				for j, row := range test.X {
					lbl := test.ClassNames[test.Y[j]]
					if lbl == "VASP" || lbl == "NAMD" {
						continue
					}
					minor++
					if model.Predict(row) == test.Y[j] {
						correct++
					}
				}
				if minor > 0 {
					b.ReportMetric(float64(correct)/float64(minor), "minor-class-recall")
				}
			}
		})
	}
}

// BenchmarkAblationForestSize sweeps the ensemble size.
func BenchmarkAblationForestSize(b *testing.B) {
	train, test := benchAppData(b, 41, core.DefaultFeatures())
	test = alignTo(b, test, train.ClassNames)
	for _, trees := range []int{25, 100, 400} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model, err := core.TrainJobClassifier(train, core.ClassifierConfig{
					Algo:   core.AlgoForest,
					Forest: forest.Config{Trees: trees, Seed: uint64(41 + i)},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(model.Accuracy(test), "accuracy")
			}
		})
	}
}

// BenchmarkPipelineThroughput measures end-to-end job generation +
// collection + summarization rate.
func BenchmarkPipelineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunPipeline(core.DefaultPipelineConfig(uint64(i), 300)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(300*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkSVMTrainPaperConfig measures training cost of the paper's SVM
// on a balanced 20-class mixture.
func BenchmarkSVMTrainPaperConfig(b *testing.B) {
	train, _ := benchAppData(b, 51, core.DefaultFeatures())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := svm.PaperConfig()
		cfg.Seed = uint64(i)
		if _, err := core.TrainJobClassifier(train, core.ClassifierConfig{Algo: core.AlgoSVM, SVM: cfg}); err != nil {
			b.Fatal(err)
		}
	}
}

// countingRBF counts kernel evaluations across Train's workers.
type countingRBF struct {
	svm.RBF
	evals *atomic.Int64
}

func (k countingRBF) Compute(a, b []float64) float64 {
	k.evals.Add(1)
	return k.RBF.Compute(a, b)
}

// BenchmarkSVMTrainKernelEvals reports how many kernel evaluations the
// paper's SVM costs to train on BenchmarkSVMTrainPaperConfig's data: the
// count the kernel caches keep down (each pair's cross segments once per
// pair, each within-class row once per model), and one that repeats
// exactly. A wrapped kernel trains but does not compile, so this is
// svm.Train on the standardized rows, not core.TrainJobClassifier.
func BenchmarkSVMTrainKernelEvals(b *testing.B) {
	train, _ := benchAppData(b, 51, core.DefaultFeatures())
	train.Standardize()
	var evals atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := svm.PaperConfig()
		cfg.Seed = uint64(i)
		cfg.Kernel = countingRBF{svm.RBF{Gamma: 0.1}, &evals}
		if _, err := svm.Train(train, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(evals.Load())/float64(b.N), "kernel-evals/op")
}

// BenchmarkForestTrainPaperConfig measures training cost of the paper's
// 200-tree forest on the same data.
func BenchmarkForestTrainPaperConfig(b *testing.B) {
	train, _ := benchAppData(b, 51, core.DefaultFeatures())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainJobClassifier(train, core.PaperForest(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelPipeline compares the end-to-end pipeline at one
// worker against the full pool — the tentpole speedup the parallel
// harness exists for, with bit-identical output either way.
func BenchmarkParallelPipeline(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=all", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultPipelineConfig(uint64(i), 300)
				cfg.Workers = tc.workers
				if _, err := core.RunPipeline(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(300*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkParallelCrossValidate compares fold-serial against
// fold-parallel cross-validation of a forest.
func BenchmarkParallelCrossValidate(b *testing.B) {
	train, _ := benchAppData(b, 81, core.DefaultFeatures())
	trainFn := func(workers int) eval.TrainFunc {
		return func(d *dataset.Dataset) (eval.ProbClassifier, error) {
			return forest.TrainClassifier(d, forest.Config{Trees: 50, Seed: 81, Workers: workers})
		}
	}
	var serialAcc float64
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc, err := eval.CrossValidate(train, 4, 81, 1, trainFn(1))
			if err != nil {
				b.Fatal(err)
			}
			serialAcc = acc
			b.ReportMetric(acc, "cv-accuracy")
		}
	})
	b.Run("workers=all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc, err := eval.CrossValidate(train, 4, 81, 0, trainFn(0))
			if err != nil {
				b.Fatal(err)
			}
			if serialAcc != 0 && acc != serialAcc {
				b.Fatalf("parallel CV accuracy %v diverged from serial %v", acc, serialAcc)
			}
			b.ReportMetric(acc, "cv-accuracy")
		}
	})
}

// BenchmarkParallelForestImportance compares serial and pooled
// permutation-importance computation on one trained forest.
func BenchmarkParallelForestImportance(b *testing.B) {
	train, _ := benchAppData(b, 91, core.DefaultFeatures())
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=all", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			model, err := forest.TrainClassifier(train, forest.Config{Trees: 100, Seed: 91, Workers: tc.workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if imp := model.Importance(); len(imp) == 0 {
					b.Fatal("no importance returned")
				}
			}
		})
	}
}

// BenchmarkParallelSuite compares the experiment runner at one worker
// against the concurrent fan-out over a representative subset.
func BenchmarkParallelSuite(b *testing.B) {
	ids := []string{"e1", "e2", "table2", "fig1"}
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=all", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env := experiments.NewEnv(benchConfig(uint64(200 + i)))
				if _, err := experiments.RunSelected(env, ids, tc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClassifyLatency measures per-job classification latency of the
// production Classify path (scale + 190 pair decisions + coupling).
func BenchmarkClassifyLatency(b *testing.B) {
	train, test := benchAppData(b, 61, core.DefaultFeatures())
	model, err := core.TrainJobClassifier(train, core.PaperSVM(61))
	if err != nil {
		b.Fatal(err)
	}
	rows := test.X
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = model.Classify(rows[r.Intn(len(rows))], 0.8)
	}
}
