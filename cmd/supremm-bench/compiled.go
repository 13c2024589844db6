package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml/forest"
)

// compiledLeg is one algorithm's compiled-vs-interpreted comparison:
// single-row classification latency through the serving entry point
// (JobClassifier.Classify) on both engines, plus a bitwise parity sweep
// over every probe row. Speedup (interpreted ns / compiled ns) is the
// machine-portable number the -min-speedup floor gates on; the absolute
// nanoseconds are informational.
type compiledLeg struct {
	Algo        string  `json:"algo"`
	TrainRows   int     `json:"train_rows"`
	ProbeRows   int     `json:"probe_rows"`
	InterpNs    float64 `json:"interpreted_ns_per_row"`
	CompiledNs  float64 `json:"compiled_ns_per_row"`
	Speedup     float64 `json:"speedup"`
	InterpRPS   float64 `json:"interpreted_rows_per_sec"`
	CompiledRPS float64 `json:"compiled_rows_per_sec"`
	Parity      bool    `json:"parity"`
	Detail      string  `json:"detail,omitempty"`
}

// timeClassify measures steady-state ns per classified row: one warm-up
// pass (fills the scratch pool, faults code and data in), then repeated
// passes until the target duration is covered.
func timeClassify(rows [][]float64, target time.Duration, fn func(row []float64)) float64 {
	pass := func() {
		for _, r := range rows {
			fn(r)
		}
	}
	pass()
	start := time.Now()
	pass()
	est := time.Since(start)
	reps := 1
	if est > 0 && est < target {
		reps = int(target/est) + 1
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		pass()
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(reps*len(rows))
}

// compiledParity sweeps every probe row through both engines and
// reports the first bitwise divergence (empty string = parity holds).
func compiledParity(c *core.JobClassifier, rows [][]float64) string {
	for ri, row := range rows {
		if got, want := c.Predict(row), c.PredictInterpreted(row); got != want {
			return fmt.Sprintf("row %d: Predict %d vs interpreted %d", ri, got, want)
		}
		gotCls, gotProbs := c.PredictProb(row)
		wantCls, wantProbs := c.PredictProbInterpreted(row)
		if gotCls != wantCls {
			return fmt.Sprintf("row %d: class %d vs interpreted %d", ri, gotCls, wantCls)
		}
		for i := range wantProbs {
			if math.Float64bits(gotProbs[i]) != math.Float64bits(wantProbs[i]) {
				return fmt.Sprintf("row %d: posterior[%d] %.17g vs interpreted %.17g",
					ri, i, gotProbs[i], wantProbs[i])
			}
		}
		gl, gp, gok := c.Classify(row, 0.5)
		wl, wp, wok := c.ClassifyInterpreted(row, 0.5)
		if gl != wl || gok != wok || math.Float64bits(gp) != math.Float64bits(wp) {
			return fmt.Sprintf("row %d: Classify (%q,%.17g,%v) vs interpreted (%q,%.17g,%v)",
				ri, gl, gp, gok, wl, wp, wok)
		}
	}
	return ""
}

// runCompiledLegs trains one classifier per paper algorithm and
// measures the compiled engine against the interpreted reference.
func runCompiledLegs(ds *dataset.Dataset, seed uint64, trees int) []compiledLeg {
	train := sample(ds, 300)
	probe := sample(ds, 200).X
	const target = 150 * time.Millisecond

	configs := []struct {
		algo core.Algorithm
		cfg  core.ClassifierConfig
	}{
		{core.AlgoForest, core.ClassifierConfig{Algo: core.AlgoForest,
			Forest: forest.Config{Trees: trees, Seed: seed}}},
		{core.AlgoSVM, core.PaperSVM(seed)},
		{core.AlgoBayes, core.ClassifierConfig{Algo: core.AlgoBayes}},
	}
	legs := make([]compiledLeg, 0, len(configs))
	for _, c := range configs {
		fmt.Fprintf(os.Stderr, "compiled: %s, train %d rows, probe %d rows...\n",
			c.algo, train.Len(), len(probe))
		model, err := core.TrainJobClassifier(train, c.cfg)
		if err != nil {
			fatal("compiled leg %s: train: %v", c.algo, err)
		}
		leg := compiledLeg{Algo: string(c.algo), TrainRows: train.Len(), ProbeRows: len(probe)}
		leg.Detail = compiledParity(model, probe)
		leg.Parity = leg.Detail == ""
		leg.InterpNs = timeClassify(probe, target, func(row []float64) {
			_, _, _ = model.ClassifyInterpreted(row, 0.5)
		})
		leg.CompiledNs = timeClassify(probe, target, func(row []float64) {
			_, _, _ = model.Classify(row, 0.5)
		})
		if leg.CompiledNs > 0 {
			leg.Speedup = leg.InterpNs / leg.CompiledNs
			leg.CompiledRPS = 1e9 / leg.CompiledNs
		}
		if leg.InterpNs > 0 {
			leg.InterpRPS = 1e9 / leg.InterpNs
		}
		legs = append(legs, leg)
	}
	return legs
}
