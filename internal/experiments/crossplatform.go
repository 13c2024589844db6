package experiments

import (
	"math"

	"repro/internal/apps"
	"repro/internal/core"
)

// platformShift rescales application signatures the way a different chip
// and memory system would: more cycles per instruction and per cache load,
// different sustained bandwidth and flop rates. Temporal I/O shape
// (Signature.IOTrend) is a property of the code, not the hardware, so it
// is untouched -- exactly why the paper expected time-dependent attributes
// to transfer across platforms.
func platformShift(list []apps.App) []apps.App {
	out := append([]apps.App(nil), list...)
	for i := range out {
		sig := out[i].Sig
		sig.Mu[apps.CPI] += math.Log(1.65)
		sig.Mu[apps.CPLD] += math.Log(1.50)
		sig.Mu[apps.MemBW] += math.Log(2.10)
		sig.Mu[apps.Flops] += math.Log(0.48)
		sig.Mu[apps.MemUsed] += math.Log(1.30)
		sig.Mu[apps.HomeWrite] += math.Log(1.9)
		sig.Mu[apps.ScratchWrite] += math.Log(1.7)
		sig.Mu[apps.LustreTx] += math.Log(1.7)
		sig.Mu[apps.DiskReadIOPS] += math.Log(1.8)
		sig.Mu[apps.DiskReadBytes] += math.Log(1.8)
		sig.Mu[apps.DiskWriteBytes] += math.Log(1.8)
		sig.Mu[apps.CPUUser] -= 0.55 // slower cores busy less of the time
		sig.Mu[apps.CPUSystem] += 0.30
		out[i].Sig = sig
	}
	return out
}

// ExpX3CrossPlatform reproduces the Section IV cross-platform discussion:
// a classifier trained on machine A and applied to machine B. Mean-based
// attributes shift with the hardware and the model degrades badly;
// time-shape attributes are hardware-invariant and transfer better --
// though, as the paper put it, with "limited success".
func ExpX3CrossPlatform(e *Env) (*Result, error) {
	balanced := balancedApps(apps.Table2Apps())
	shifted := platformShift(balanced)

	genAt := func(seed uint64, community []apps.App) (*core.PipelineResult, error) {
		cfg := communityPipeline(seed, 20*e.Cfg.TrainPerClass, community)
		cfg.Segments = 3
		return core.RunPipeline(cfg)
	}
	runA, err := genAt(e.Cfg.Seed+61, balanced)
	if err != nil {
		return nil, err
	}
	runB, err := genAt(e.Cfg.Seed+62, shifted)
	if err != nil {
		return nil, err
	}

	meanOpt := core.DefaultFeatures()
	shapeOpt := core.FeatureOptions{COV: true, Segments: 3, SegmentShape: true}

	r := newResult("x3", "cross-platform classification: mean vs time-shape attributes (RF)")
	r.addf("%-18s %14s %15s", "attributes", "same platform", "cross platform")
	for _, fc := range []struct {
		name string
		opt  core.FeatureOptions
	}{
		{"mean", meanOpt},
		{"time-shape", shapeOpt},
	} {
		dsA, err := core.BuildDataset(runA.Records, core.LabelByLariat, fc.opt)
		if err != nil {
			return nil, err
		}
		dsB, err := core.BuildDataset(runB.Records, core.LabelByLariat, fc.opt)
		if err != nil {
			return nil, err
		}
		trainA, testA := dsA.Split(rngSplit(e.Cfg.Seed+63), 0.7)
		model, err := core.TrainJobClassifier(trainA, core.PaperForest(e.Cfg.Seed+64))
		if err != nil {
			return nil, err
		}
		same := model.Accuracy(testA)
		cross := model.Accuracy(alignClasses(dsB, trainA.ClassNames))
		r.addf("%-18s %13.1f%% %14.1f%%", fc.name, 100*same, 100*cross)
		r.Metrics[fc.name+"_same"] = same
		r.Metrics[fc.name+"_cross"] = cross
	}
	r.addf("")
	r.addf("paper: mean-based cross-platform classifiers fail; time-dependent attribute")
	r.addf("models \"were superior to the mean based cross platform classifiers\" but of")
	r.addf("limited overall success")
	return r, nil
}
