package appkernel

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestExpectedWallScaling(t *testing.T) {
	k := Kernel{Name: "x", BaseWall: 1000, ScalingExp: 1}
	if k.ExpectedWall(1) != 1000 {
		t.Error("1-node wall")
	}
	if math.Abs(k.ExpectedWall(4)-250) > 1e-9 {
		t.Errorf("perfect scaling: %v", k.ExpectedWall(4))
	}
	sub := Kernel{Name: "y", BaseWall: 1000, ScalingExp: 0.5}
	if math.Abs(sub.ExpectedWall(4)-500) > 1e-9 {
		t.Errorf("sublinear scaling: %v", sub.ExpectedWall(4))
	}
}

func TestSimulateShape(t *testing.T) {
	k := DefaultKernels()[0]
	runs := k.Simulate(rng.New(1), 50, nil)
	if len(runs) != 50*len(k.NodeCounts) {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, r := range runs {
		if r.Wall <= 0 || r.Degraded {
			t.Fatalf("bad healthy run %+v", r)
		}
	}
}

func TestSimulateDegradation(t *testing.T) {
	k := Kernel{Name: "k", NodeCounts: []int{1}, BaseWall: 100, ScalingExp: 1, Noise: 0.02}
	runs := k.Simulate(rng.New(2), 100, []Degradation{{StartSeq: 50, Factor: 1.5}})
	var healthy, degraded float64
	var nh, nd int
	for _, r := range runs {
		if r.Seq < 50 {
			if r.Degraded {
				t.Fatal("early run marked degraded")
			}
			healthy += r.Wall
			nh++
		} else {
			if !r.Degraded {
				t.Fatal("late run not marked degraded")
			}
			degraded += r.Wall
			nd++
		}
	}
	ratio := (degraded / float64(nd)) / (healthy / float64(nh))
	if math.Abs(ratio-1.5) > 0.1 {
		t.Errorf("degradation ratio = %v, want ~1.5", ratio)
	}
}

func TestDegradationWindow(t *testing.T) {
	d := Degradation{StartSeq: 10, EndSeq: 20, Factor: 2}
	if d.active(9) || !d.active(10) || !d.active(20) || d.active(21) {
		t.Error("window bounds wrong")
	}
	open := Degradation{StartSeq: 5, Factor: 2}
	if !open.active(1000) {
		t.Error("open-ended window should stay active")
	}
}

func TestCUSUMDetectsShift(t *testing.T) {
	r := rng.New(3)
	baseline := make([]float64, 50)
	for i := range baseline {
		baseline[i] = 100 * r.LogNormal(0, 0.03)
	}
	det, err := NewCUSUM(baseline)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy stream: no alarm over 100 observations.
	for i := 0; i < 100; i++ {
		if det.Observe(100 * r.LogNormal(0, 0.03)) {
			t.Fatal("false alarm on healthy stream")
		}
	}
	// 20% regression: alarm within a handful of observations.
	alarmed := -1
	for i := 0; i < 30; i++ {
		if det.Observe(120 * r.LogNormal(0, 0.03)) {
			alarmed = i
			break
		}
	}
	if alarmed < 0 {
		t.Fatal("no alarm on 20% regression")
	}
	if alarmed > 15 {
		t.Errorf("alarm too slow: %d observations", alarmed)
	}
}

func TestCUSUMErrors(t *testing.T) {
	if _, err := NewCUSUM([]float64{1}); err == nil {
		t.Error("single baseline should error")
	}
	det, err := NewCUSUM([]float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if det.Sigma <= 0 {
		t.Error("zero-variance baseline needs sigma floor")
	}
}

// cusumBench runs a CUSUM over healthy then shifted data, returning
// (false alarms in healthy phase, observations until first alarm after
// the shift; -1 if never).
func cusumBench(t *testing.T, shift float64, seed uint64) (falseAlarms, delay int) {
	t.Helper()
	r := rng.New(seed)
	baseline := make([]float64, 60)
	for i := range baseline {
		baseline[i] = 100 * r.LogNormal(0, 0.04)
	}
	det, err := NewCUSUM(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if det.Observe(100 * r.LogNormal(0, 0.04)) {
			falseAlarms++
		}
	}
	delay = -1
	for i := 0; i < 60; i++ {
		if det.Observe(100 * shift * r.LogNormal(0, 0.04)) {
			delay = i
			break
		}
	}
	return falseAlarms, delay
}

func TestAllDetectorsCatchLargeShift(t *testing.T) {
	fa, delay := cusumBench(t, 1.5, 11)
	if delay < 0 {
		t.Errorf("cusum missed a 50%% regression")
	}
	if delay > 10 {
		t.Errorf("cusum took %d observations on a 50%% regression", delay)
	}
	if fa > 3 {
		t.Errorf("cusum raised %d false alarms on healthy data", fa)
	}
}

func TestCUSUMCatchesSmallDrift(t *testing.T) {
	// 8% drift (~2 sigma at 4% noise): an accumulating detector must
	// catch it.
	if _, delay := cusumBench(t, 1.08, 13); delay < 0 || delay > 30 {
		t.Errorf("cusum delay on 8%% drift = %d", delay)
	}
}

func TestDetectorBaselineErrors(t *testing.T) {
	if _, err := NewCUSUM([]float64{1}); err == nil {
		t.Error("cusum accepted a single-point baseline")
	}
}

// TestZeroVarianceBaselines: a flat baseline floors sigma, so an
// in-control point leaves the statistic a number and a clear regression
// still alarms. An all-zero baseline once left sigma 0: the in-control
// 0 made the statistic NaN for good and nothing alarmed again.
func TestZeroVarianceBaselines(t *testing.T) {
	for _, tc := range []struct {
		baseline []float64
		slow     float64
	}{
		{[]float64{5, 5, 5}, 6},
		{[]float64{0, 0, 0}, 1e6},
	} {
		det, err := NewCUSUM(tc.baseline)
		if err != nil {
			t.Fatalf("%v: %v", tc.baseline, err)
		}
		if det.Observe(tc.baseline[0]) || math.IsNaN(det.Value()) {
			t.Fatalf("%v: in-control point alarmed or left value %v", tc.baseline, det.Value())
		}
		alarmed := false
		for i := 0; i < 10 && !alarmed; i++ {
			alarmed = det.Observe(tc.slow)
		}
		if !alarmed {
			t.Errorf("cusum never alarmed on a wall of %v from the flat baseline %v", tc.slow, tc.baseline)
		}
	}
}

func TestMonitorEndToEnd(t *testing.T) {
	r := rng.New(4)
	kernels := DefaultKernels()
	var baseline []Run
	for i, k := range kernels {
		baseline = append(baseline, k.Simulate(r.Split(uint64(i)), 40, nil)...)
	}
	mon, err := NewMonitor(baseline)
	if err != nil {
		t.Fatal(err)
	}
	// Live stream: ior degrades at seq 20 (filesystem problem).
	alarmsBefore := 0
	for i, k := range kernels {
		var degs []Degradation
		if k.Name == "ior" {
			degs = []Degradation{{StartSeq: 20, Factor: 2.0}}
		}
		for _, run := range k.Simulate(r.Split(uint64(100+i)), 60, degs) {
			if mon.Observe(run) && run.Seq < 20 {
				alarmsBefore++
			}
		}
	}
	iorAlarms := 0
	for key, seqs := range mon.Alarms {
		if len(seqs) > 0 && key[:3] == "ior" {
			iorAlarms += len(seqs)
		}
	}
	if iorAlarms == 0 {
		t.Error("monitor missed the ior degradation")
	}
	if alarmsBefore > 2 {
		t.Errorf("%d alarms before the fault", alarmsBefore)
	}
}

func TestRegressionDataLayout(t *testing.T) {
	kernels := DefaultKernels()[:2]
	runs := []Run{{Kernel: kernels[1].Name, Nodes: 4, Wall: 123}}
	x, y, names, err := RegressionData(kernels, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 || names[2] != "nodes" {
		t.Fatalf("names = %v", names)
	}
	if x[0][0] != 0 || x[0][1] != 1 || x[0][2] != 4 {
		t.Errorf("row = %v", x[0])
	}
	if y[0] != 123 {
		t.Error("target wrong")
	}
	if _, _, _, err := RegressionData(kernels, []Run{{Kernel: "nope"}}); err == nil {
		t.Error("unknown kernel not caught")
	}
}

func TestWallTimeRegression(t *testing.T) {
	r := rng.New(5)
	kernels := DefaultKernels()
	var train, test []Run
	for i, k := range kernels {
		train = append(train, k.Simulate(r.Split(uint64(i)), 30, nil)...)
		test = append(test, k.Simulate(r.Split(uint64(50+i)), 10, nil)...)
	}
	xTr, yTr, _, err := RegressionData(kernels, train)
	if err != nil {
		t.Fatal(err)
	}
	xTe, yTe, _, err := RegressionData(kernels, test)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := TrainRF(xTr, yTr, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := R2(rf, xTe, yTe); r2 < 0.88 {
		t.Errorf("RF wall-time R2 = %v", r2)
	}
	svr, err := TrainSVR(xTr, yTr, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := R2(svr, xTe, yTe); r2 < 0.88 {
		t.Errorf("SVR wall-time R2 = %v", r2)
	}
}

func BenchmarkCUSUMObserve(b *testing.B) {
	det, _ := NewCUSUM([]float64{100, 101, 99, 100, 102})
	for i := 0; i < b.N; i++ {
		det.Observe(100.5)
	}
}
