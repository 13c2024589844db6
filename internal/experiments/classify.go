package experiments

import (
	"fmt"
	"strings"

	"repro/internal/ml/eval"
)

// Table2 reproduces the 20-application confusion matrix: SVM with RBF
// gamma=0.1, C=1000, trained on an application-balanced mixture, tested on
// the native mix.
func Table2(e *Env) (*Result, error) {
	train, test, err := e.AppData()
	if err != nil {
		return nil, err
	}
	model, err := e.AppSVM()
	if err != nil {
		return nil, err
	}
	trainPreds := scoreParallel(model, train)
	testPreds := scoreParallel(model, test)
	cm := eval.NewConfusionMatrix(train.ClassNames, testPreds)

	r := newResult("table2", "SVM confusion matrix over 20 applications (native-mix test)")
	r.Metrics["train_accuracy"] = eval.Accuracy(trainPreds)
	r.Metrics["test_accuracy"] = cm.Accuracy()
	r.addf("train accuracy: %.4f (paper: 0.9995)", r.Metrics["train_accuracy"])
	r.addf("test accuracy:  %.4f (paper: 0.97)", r.Metrics["test_accuracy"])
	r.addf("")
	for _, line := range strings.Split(strings.TrimRight(cm.String(), "\n"), "\n") {
		r.addf("%s", line)
	}
	r.addf("")
	r.addf("largest misclassification flows:")
	for _, p := range cm.TopConfusions(6) {
		r.addf("  %-12s -> %-12s %4d (%.1f%% of %s)", p.True, p.Pred, p.Count, 100*p.Rate, p.True)
	}
	return r, nil
}

// Figure1 reproduces the classified / correctly-classified threshold plot
// for the application SVM on the native-mix test set.
func Figure1(e *Env) (*Result, error) {
	_, test, err := e.AppData()
	if err != nil {
		return nil, err
	}
	model, err := e.AppSVM()
	if err != nil {
		return nil, err
	}
	preds := scoreParallel(model, test)
	curve := eval.ThresholdCurve(preds, eval.DefaultThresholds())

	r := newResult("fig1", "% classified and % correctly classified vs probability threshold")
	r.addf("%-10s %12s %22s", "threshold", "classified", "correctly classified")
	for _, p := range curve {
		r.addf("%-10.2f %11.1f%% %21.1f%%", p.Threshold, 100*p.Classified, 100*p.CorrectlyClassified)
		r.Metrics[fmt.Sprintf("classified@%.2f", p.Threshold)] = p.Classified
		r.Metrics[fmt.Sprintf("correct@%.2f", p.Threshold)] = p.CorrectlyClassified
	}
	return r, nil
}

// Figure2 reproduces the Equation-1 ROC-like comparison of the SVM and RF
// classifiers over thresholds 1.0 down to 0.05.
func Figure2(e *Env) (*Result, error) {
	_, test, err := e.AppData()
	if err != nil {
		return nil, err
	}
	svmModel, err := e.AppSVM()
	if err != nil {
		return nil, err
	}
	rfModel, err := e.AppRF()
	if err != nil {
		return nil, err
	}
	ths := eval.DefaultThresholds()
	svmROC := eval.ROCLike(scoreParallel(svmModel, test), ths)
	rfROC := eval.ROCLike(scoreParallel(rfModel, test), ths)

	r := newResult("fig2", "ROC-like curve (Equation 1): SVM vs RF")
	r.addf("%-10s %16s %16s", "threshold", "svm (x, y)", "rf (x, y)")
	for i := range ths {
		r.addf("%-10.2f (%6.3f, %6.3f) (%6.3f, %6.3f)",
			ths[i], svmROC[i].X, svmROC[i].Y, rfROC[i].X, rfROC[i].Y)
	}
	r.Metrics["svm_auc_like"] = eval.AUCLike(svmROC)
	r.Metrics["rf_auc_like"] = eval.AUCLike(rfROC)
	r.addf("")
	r.addf("area-like score (lower is better): svm %.4f  rf %.4f",
		r.Metrics["svm_auc_like"], r.Metrics["rf_auc_like"])
	return r, nil
}

// Figure3 applies the application SVM to the Uncategorized and NA pools
// and reports the threshold-classification curves. The paper finds ~20% or
// fewer classify at a ~0.8 threshold, versus >85% for the known test set.
func Figure3(e *Env) (*Result, error) {
	_, test, err := e.AppData()
	if err != nil {
		return nil, err
	}
	uncat, na, err := e.UnknownPools()
	if err != nil {
		return nil, err
	}
	model, err := e.AppSVM()
	if err != nil {
		return nil, err
	}
	ths := eval.DefaultThresholds()
	knownCurve := eval.ThresholdCurve(scoreParallel(model, test), ths)
	uncatCurve := eval.ThresholdCurve(scoreRowsParallel(model, uncat), ths)
	naCurve := eval.ThresholdCurve(scoreRowsParallel(model, na), ths)

	r := newResult("fig3", "% classified vs threshold: Uncategorized and NA pools (vs known mix)")
	r.addf("%-10s %10s %14s %10s", "threshold", "known", "uncategorized", "na")
	for i := range ths {
		r.addf("%-10.2f %9.1f%% %13.1f%% %9.1f%%", ths[i],
			100*knownCurve[i].Classified, 100*uncatCurve[i].Classified, 100*naCurve[i].Classified)
	}
	r.Metrics["known@0.80"] = curveAt(knownCurve, 0.80)
	r.Metrics["uncat@0.80"] = curveAt(uncatCurve, 0.80)
	r.Metrics["na@0.80"] = curveAt(naCurve, 0.80)
	return r, nil
}

// curveAt returns the Classified fraction at the given threshold.
func curveAt(curve []eval.ThresholdPoint, t float64) float64 {
	for _, p := range curve {
		if p.Threshold == t {
			return p.Classified
		}
	}
	return 0
}
