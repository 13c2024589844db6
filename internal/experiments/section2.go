package experiments

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ml/svm"
	"repro/internal/warehouse"
)

// ExpE1Efficiency reproduces the Section II efficient/inefficient study:
// deterministic rule-based labels (hence a completely separable problem),
// three classifiers compared. The paper finds naive Bayes performs very
// poorly while the SVM and RF achieve nearly 100% on withheld data.
func ExpE1Efficiency(e *Env) (*Result, error) {
	// Dedicated run with an elevated node-fault rate so the inefficient
	// class is a genuine mixture of failure modes (mid-run catastrophes,
	// interpreter-bound codes, cache-thrashing codes, imbalanced jobs) --
	// the multimodal, non-normal, correlated structure that defeats the
	// naive Bayes assumptions while leaving the problem separable.
	community := append([]apps.App(nil), apps.Catalog()...)
	for i := range community {
		community[i].Sig.CatastropheProb = 0.06
	}
	run, err := core.RunPipeline(communityPipeline(e.Cfg.Seed+20, e.Cfg.TestJobs, community))
	if err != nil {
		return nil, err
	}
	rule := core.DefaultEfficiencyRule()
	// The paper's Section II set "were selected to be completely
	// separable": drop jobs within 10% of any rule boundary.
	label := func(rec *warehouse.Record) (string, bool) {
		if rule.Margin(rec) < 0.10 {
			return "", false
		}
		return core.LabelByEfficiency(rule)(rec)
	}
	ds, err := core.BuildDataset(run.Records, label, core.DefaultFeatures())
	if err != nil {
		return nil, err
	}
	balanced := ds.Balanced(rngSplit(e.Cfg.Seed+21), minClassCount(ds))
	train, test := balanced.Split(rngSplit(e.Cfg.Seed+22), 0.6)

	r := newResult("e1", "efficient vs inefficient: NB vs SVM vs RF (separable rule labels)")
	r.addf("class balance: %v over %v", balanced.ClassCounts(), balanced.ClassNames)
	for _, cfg := range []core.ClassifierConfig{
		{Algo: core.AlgoBayes},
		core.PaperSVM(e.Cfg.Seed + 23),
		core.PaperForest(e.Cfg.Seed + 24),
	} {
		model, err := core.TrainJobClassifier(train, cfg)
		if err != nil {
			return nil, err
		}
		trainAcc := model.Accuracy(train)
		testAcc := model.Accuracy(test)
		r.addf("%-4s train %.4f  test %.4f", cfg.Algo, trainAcc, testAcc)
		r.Metrics[string(cfg.Algo)+"_train"] = trainAcc
		r.Metrics[string(cfg.Algo)+"_test"] = testAcc
	}
	r.addf("")
	r.addf("paper: NB very poor; SVM and RF near 100%% on withheld data")
	return r, nil
}

// ExpE2ExitCode reproduces the Section II negative result: classifying
// job success/failure from the exit code. Models train well but cannot
// predict withheld exit codes, because most non-zero exits come from
// trailing script operations with no performance correlate.
func ExpE2ExitCode(e *Env) (*Result, error) {
	run, err := e.NativeRun()
	if err != nil {
		return nil, err
	}
	ds, err := core.BuildDataset(run.Records, core.LabelByExit, core.DefaultFeatures())
	if err != nil {
		return nil, err
	}
	balanced := ds.Balanced(rngSplit(e.Cfg.Seed+31), minClassCount(ds))
	train, test := balanced.Split(rngSplit(e.Cfg.Seed+32), 0.6)

	r := newResult("e2", "success vs failure from exit codes: trains well, fails to generalize")
	// Exit codes are label noise with respect to the features, so the
	// only way to "train very well" is to memorize. Jobs of one
	// application sit extremely close in standardized feature space, and
	// at the paper's gamma=0.1 the RBF kernel cannot tell such
	// near-duplicates apart within the C budget; a sharper kernel (the
	// paper does not give Section II hyperparameters) lets the SVM reach
	// the paper's near-perfect training accuracy -- and still, as the
	// paper found, generalization stays at chance.
	svmCfg := core.PaperSVM(e.Cfg.Seed + 33)
	svmCfg.SVM.Kernel = svm.RBF{Gamma: 3}
	svmCfg.SVM.MaxIter = 2_000_000
	for _, cfg := range []core.ClassifierConfig{
		svmCfg,
		core.PaperForest(e.Cfg.Seed + 34),
	} {
		model, err := core.TrainJobClassifier(train, cfg)
		if err != nil {
			return nil, err
		}
		trainAcc := model.Accuracy(train)
		testAcc := model.Accuracy(test)
		r.addf("%-4s train %.4f  test %.4f (chance = 0.50)", cfg.Algo, trainAcc, testAcc)
		r.Metrics[string(cfg.Algo)+"_train"] = trainAcc
		r.Metrics[string(cfg.Algo)+"_test"] = testAcc
	}
	r.addf("")
	r.addf("paper: both classifiers trained very well but were not successful on withheld data;")
	r.addf("the exit code reflects the last script operation, not application behaviour")
	return r, nil
}

// minClassCount returns the smallest non-zero class count, used to build a
// maximal balanced sample without oversampling the minority too far.
func minClassCount(ds interface{ ClassCounts() []int }) int {
	minC := 0
	for _, c := range ds.ClassCounts() {
		if c > 0 && (minC == 0 || c < minC) {
			minC = c
		}
	}
	if minC == 0 {
		minC = 1
	}
	return minC
}
