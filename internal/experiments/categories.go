package experiments

import (
	"repro/internal/ml/eval"
)

// Table3 reproduces the broad-category classification table: an SVM
// trained to assign jobs to one of the 12 categories, evaluated on the
// native mix, reporting per-category job counts, % mix, and % correct
// (paper: 97% overall).
func Table3(e *Env) (*Result, error) {
	_, test, err := e.CategoryData()
	if err != nil {
		return nil, err
	}
	model, err := e.CategorySVM()
	if err != nil {
		return nil, err
	}
	preds := scoreParallel(model, test)
	cm := eval.NewConfusionMatrix(test.ClassNames, preds)
	totals := cm.RowTotals()
	accs := cm.ClassAccuracy()
	grand := 0
	for _, n := range totals {
		grand += n
	}

	r := newResult("table3", "Classification by general application type")
	r.addf("%-16s %8s %8s %10s", "group name", "number", "% mix", "% correct")
	for i, name := range test.ClassNames {
		mix := 0.0
		if grand > 0 {
			mix = 100 * float64(totals[i]) / float64(grand)
		}
		r.addf("%-16s %8d %8.2f %10.2f", name, totals[i], mix, 100*accs[i])
		r.Metrics["correct:"+name] = accs[i]
		r.Metrics["mix:"+name] = mix / 100
	}
	r.Metrics["overall_accuracy"] = cm.Accuracy()
	r.addf("")
	r.addf("overall accuracy: %.4f (paper: 0.97)", cm.Accuracy())
	return r, nil
}

// Figure4 applies the category classifier to the Uncategorized and NA
// pools: the curves improve only slightly over the per-application Figure
// 3, underscoring how unlike the community mix those jobs are.
func Figure4(e *Env) (*Result, error) {
	uncat, na, err := e.UnknownPools()
	if err != nil {
		return nil, err
	}
	model, err := e.CategorySVM()
	if err != nil {
		return nil, err
	}
	ths := eval.DefaultThresholds()
	uncatCurve := eval.ThresholdCurve(scoreRowsParallel(model, uncat), ths)
	naCurve := eval.ThresholdCurve(scoreRowsParallel(model, na), ths)

	r := newResult("fig4", "% classified into 12 broad categories vs threshold: Uncategorized and NA")
	r.addf("%-10s %14s %10s", "threshold", "uncategorized", "na")
	for i := range ths {
		r.addf("%-10.2f %13.1f%% %9.1f%%", ths[i],
			100*uncatCurve[i].Classified, 100*naCurve[i].Classified)
	}
	r.Metrics["uncat@0.80"] = curveAt(uncatCurve, 0.80)
	r.Metrics["na@0.80"] = curveAt(naCurve, 0.80)
	return r, nil
}
