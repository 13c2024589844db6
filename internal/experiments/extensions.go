package experiments

import (
	"sort"

	"repro/internal/appkernel"
	"repro/internal/core"
	"repro/internal/ml/eval"
)

// ExpX1TimeDependent reproduces the Section IV extension: random-forest
// models built on time-dependent (per-time-slice) attributes work
// approximately as well as models built on whole-job means.
func ExpX1TimeDependent(e *Env) (*Result, error) {
	segTrain, segTest, meanTrain, meanTest, err := e.SegmentData()
	if err != nil {
		return nil, err
	}
	segModel, err := core.TrainJobClassifier(segTrain, core.PaperForest(e.Cfg.Seed+41))
	if err != nil {
		return nil, err
	}
	meanModel, err := core.TrainJobClassifier(meanTrain, core.PaperForest(e.Cfg.Seed+41))
	if err != nil {
		return nil, err
	}
	segAcc := eval.Accuracy(scoreParallel(segModel, segTest))
	meanAcc := eval.Accuracy(scoreParallel(meanModel, meanTest))

	r := newResult("x1", "time-dependent attributes vs whole-job means (RF)")
	r.addf("mean-attribute model accuracy:    %.4f", meanAcc)
	r.addf("segment-attribute model accuracy: %.4f", segAcc)
	r.addf("")
	r.addf("paper: time-dependent models \"worked very well and were approximately")
	r.addf("as good as the models using mean attributes\"")
	r.Metrics["mean_accuracy"] = meanAcc
	r.Metrics["segment_accuracy"] = segAcc
	return r, nil
}

// ExpX2KernelRegression reproduces the Section IV application-kernel
// extension: SVR and RF regression of kernel wall time, plus the CUSUM
// process-control detection of an injected performance regression.
func ExpX2KernelRegression(e *Env) (*Result, error) {
	r := newResult("x2", "application kernels: wall-time regression and CUSUM QoS alerts")
	kernels := appkernel.DefaultKernels()
	root := rngSplit(e.Cfg.Seed + 51)

	var train, test []appkernel.Run
	for i, k := range kernels {
		train = append(train, k.Simulate(root.Split(uint64(i)), 40, nil)...)
		test = append(test, k.Simulate(root.Split(uint64(100+i)), 15, nil)...)
	}
	xTr, yTr, _, err := appkernel.RegressionData(kernels, train)
	if err != nil {
		return nil, err
	}
	xTe, yTe, _, err := appkernel.RegressionData(kernels, test)
	if err != nil {
		return nil, err
	}
	rf, err := appkernel.TrainRF(xTr, yTr, e.Cfg.Seed+52)
	if err != nil {
		return nil, err
	}
	svr, err := appkernel.TrainSVR(xTr, yTr, e.Cfg.Seed+53)
	if err != nil {
		return nil, err
	}
	r.Metrics["rf_r2"] = appkernel.R2(rf, xTe, yTe)
	r.Metrics["svr_r2"] = appkernel.R2(svr, xTe, yTe)
	r.addf("wall-time regression R^2 on withheld runs: rf %.4f  svr %.4f",
		r.Metrics["rf_r2"], r.Metrics["svr_r2"])

	// CUSUM: inject a 60% ior slowdown at submission 25.
	mon, err := appkernel.NewMonitor(train)
	if err != nil {
		return nil, err
	}
	falseAlarms, detections := 0, 0
	firstDetection := -1
	for i, k := range kernels {
		var degs []appkernel.Degradation
		if k.Name == "ior" {
			degs = []appkernel.Degradation{{StartSeq: 25, Factor: 1.6}}
		}
		for _, run := range k.Simulate(root.Split(uint64(200+i)), 50, degs) {
			if mon.Observe(run) {
				if run.Degraded {
					detections++
					if firstDetection < 0 || run.Seq < firstDetection {
						firstDetection = run.Seq
					}
				} else {
					falseAlarms++
				}
			}
		}
	}
	r.Metrics["cusum_detections"] = float64(detections)
	r.Metrics["cusum_false_alarms"] = float64(falseAlarms)
	r.Metrics["cusum_first_detection"] = float64(firstDetection)
	r.addf("CUSUM: %d alarms on the degraded stream (first at submission %d), %d false alarms elsewhere",
		detections, firstDetection, falseAlarms)
	streams := make([]string, 0, len(mon.Alarms))
	for k := range mon.Alarms {
		streams = append(streams, k)
	}
	sort.Strings(streams)
	for _, k := range streams {
		r.addf("  alarmed stream %-12s at submissions %v", k, mon.Alarms[k])
	}
	return r, nil
}
