package experiments

import (
	"strings"
	"testing"
)

// tinyEnv is shared by the driver tests: one small environment generated
// once per test binary, so the suite stays fast.
var tiny *Env

func env(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment drivers are expensive")
	}
	if tiny == nil {
		tiny = NewEnv(Config{
			Seed:          99,
			TrainPerClass: 30,
			TestJobs:      500,
			UnknownJobs:   250,
			SweepCounts:   []int{36, 5, 1},
		})
	}
	return tiny
}

// tinyResults holds each driver's result on the shared tiny
// environment, so a shape test and TestGoldenExtensions pay for one run.
var tinyResults = map[string]*Result{}

func tinyResult(t *testing.T, id string) *Result {
	t.Helper()
	e := env(t)
	if r, ok := tinyResults[id]; ok {
		return r
	}
	driver, _ := ByID(id)
	r, err := driver(e)
	if err != nil {
		t.Fatal(err)
	}
	tinyResults[id] = r
	return r
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"e1", "e2", "table2", "fig1", "fig2", "fig3", "table3", "fig4", "fig5", "fig6", "x1", "x2", "x3", "x4"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, ok := ByID("table2"); !ok {
		t.Error("ByID failed for table2")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := Table2(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["train_accuracy"] < 0.95 {
		t.Errorf("train accuracy = %v, want near 1", r.Metrics["train_accuracy"])
	}
	// At tiny scale the bar is lower than the paper's 0.97, but the
	// classifier must be far above the 5% chance level.
	if r.Metrics["test_accuracy"] < 0.70 {
		t.Errorf("test accuracy = %v", r.Metrics["test_accuracy"])
	}
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "VASP") {
		t.Error("confusion matrix missing VASP row")
	}
}

func TestFigure1Shape(t *testing.T) {
	r, err := Figure1(env(t))
	if err != nil {
		t.Fatal(err)
	}
	// Classified fraction is monotone in falling threshold and correct
	// fraction never exceeds classified fraction.
	prev := -1.0
	for _, th := range []float64{0.95, 0.80, 0.50, 0.20} {
		cls := r.Metrics[keyAt("classified", th)]
		correct := r.Metrics[keyAt("correct", th)]
		if cls < prev {
			t.Errorf("classified fraction decreased at %v", th)
		}
		if correct > cls+1e-9 {
			t.Errorf("correct > classified at %v", th)
		}
		prev = cls
	}
}

func keyAt(prefix string, th float64) string {
	if th == 0.95 {
		return prefix + "@0.95"
	}
	if th == 0.80 {
		return prefix + "@0.80"
	}
	if th == 0.50 {
		return prefix + "@0.50"
	}
	return prefix + "@0.20"
}

func TestFigure2Shape(t *testing.T) {
	r, err := Figure2(env(t))
	if err != nil {
		t.Fatal(err)
	}
	// Both classifiers should be far from the worst case (area near 1).
	if r.Metrics["svm_auc_like"] > 0.5 || r.Metrics["rf_auc_like"] > 0.5 {
		t.Errorf("area-like scores too high: svm %v rf %v",
			r.Metrics["svm_auc_like"], r.Metrics["rf_auc_like"])
	}
}

func TestFigure3Contrast(t *testing.T) {
	r, err := Figure3(env(t))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's central contrast: at a 0.8 threshold most known jobs
	// classify while the unknown pools mostly do not.
	// Probability confidence shrinks with training-set size, so at tiny
	// test scale the absolute known fraction is modest; the invariant is
	// the CONTRAST: known jobs classify far more readily than unknowns.
	known := r.Metrics["known@0.80"]
	uncat := r.Metrics["uncat@0.80"]
	na := r.Metrics["na@0.80"]
	if known < 0.15 {
		t.Errorf("known classified fraction = %v", known)
	}
	if uncat > known/2 || na > known/2 {
		t.Errorf("unknown pools classify too easily: uncat %v na %v vs known %v", uncat, na, known)
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := Table3(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["overall_accuracy"] < 0.75 {
		t.Errorf("category accuracy = %v", r.Metrics["overall_accuracy"])
	}
	// MD and QC,ES dominate the native mix.
	if r.Metrics["mix:MD"]+r.Metrics["mix:QC,ES"] < 0.6 {
		t.Errorf("MD+QC,ES mix = %v", r.Metrics["mix:MD"]+r.Metrics["mix:QC,ES"])
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["uncat@0.80"] > 0.5 || r.Metrics["na@0.80"] > 0.5 {
		t.Errorf("unknown pools classify too easily into categories: %v %v",
			r.Metrics["uncat@0.80"], r.Metrics["na@0.80"])
	}
}

func TestFigure5Shape(t *testing.T) {
	r, err := Figure5(env(t))
	if err != nil {
		t.Fatal(err)
	}
	// MEM_USED leads; network attributes are negligible.
	mem := r.Metrics["imp:MEM_USED"]
	for _, net := range []string{"imp:IB_RX", "imp:IB_TX", "imp:ETH_TX"} {
		if r.Metrics[net] > mem/4 {
			t.Errorf("network attribute %s importance %v rivals MEM_USED %v", net, r.Metrics[net], mem)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	r, err := Figure6(env(t))
	if err != nil {
		t.Fatal(err)
	}
	full := r.Metrics["acc:36"]
	five := r.Metrics["acc:5"]
	one := r.Metrics["acc:1"]
	if five < full-0.15 {
		t.Errorf("5-predictor accuracy %v collapsed vs full %v", five, full)
	}
	if one >= five {
		t.Errorf("1-predictor accuracy %v should trail 5-predictor %v", one, five)
	}
}

func TestE1E2Shapes(t *testing.T) {
	e1 := tinyResult(t, "e1")
	if e1.Metrics["rf_test"] < 0.9 {
		t.Errorf("e1 rf test = %v", e1.Metrics["rf_test"])
	}
	if e1.Metrics["nb_test"] > e1.Metrics["rf_test"] {
		t.Errorf("e1: NB (%v) should not beat RF (%v)", e1.Metrics["nb_test"], e1.Metrics["rf_test"])
	}
	e2 := tinyResult(t, "e2")
	if e2.Metrics["rf_train"] < 0.95 {
		t.Errorf("e2 rf train = %v, should memorize", e2.Metrics["rf_train"])
	}
	if e2.Metrics["rf_test"] > 0.65 || e2.Metrics["svm_test"] > 0.65 {
		t.Errorf("e2 test accuracies should be near chance: rf %v svm %v",
			e2.Metrics["rf_test"], e2.Metrics["svm_test"])
	}
}

func TestX1X2Shapes(t *testing.T) {
	x1 := tinyResult(t, "x1")
	diff := x1.Metrics["segment_accuracy"] - x1.Metrics["mean_accuracy"]
	if diff < -0.1 || diff > 0.1 {
		t.Errorf("segment vs mean accuracy gap = %v, want approximately equal", diff)
	}
	x2 := tinyResult(t, "x2")
	if x2.Metrics["rf_r2"] < 0.85 || x2.Metrics["svr_r2"] < 0.85 {
		t.Errorf("kernel regression R2: rf %v svr %v", x2.Metrics["rf_r2"], x2.Metrics["svr_r2"])
	}
	if x2.Metrics["cusum_detections"] < 1 {
		t.Error("CUSUM missed the injected degradation")
	}
}

func TestX3Shape(t *testing.T) {
	r := tinyResult(t, "x3")
	meanSame := r.Metrics["mean_same"]
	meanCross := r.Metrics["mean_cross"]
	shapeCross := r.Metrics["time-shape_cross"]
	if meanCross > meanSame-0.2 {
		t.Errorf("mean attributes should degrade cross-platform: same %v cross %v", meanSame, meanCross)
	}
	if shapeCross < meanCross {
		t.Errorf("time-shape cross (%v) should beat mean cross (%v)", shapeCross, meanCross)
	}
}

func TestX4Shape(t *testing.T) {
	r := tinyResult(t, "x4")
	// Clusters must beat the majority-class baseline decisively, and the
	// PCA spectrum must be cumulative and bounded.
	if r.Metrics["category_purity"] < 0.6 {
		t.Errorf("category purity = %v", r.Metrics["category_purity"])
	}
	prev := 0.0
	for _, c := range []int{1, 2, 3, 5, 10} {
		ev := r.Metrics[metricKey("pca", c)]
		if ev < prev || ev > 1 {
			t.Fatalf("PCA explained variance not cumulative: %v after %v", ev, prev)
		}
		prev = ev
	}
	// Discovery runs over both unknown pools, never skipped.
	if got, want := r.Metrics["discovery_rows"], float64(2*env(t).Cfg.UnknownJobs); got != want {
		t.Errorf("discovery fit %v unlabeled jobs, want %v", got, want)
	}
}

func TestResultString(t *testing.T) {
	r := newResult("id", "title")
	r.addf("line %d", 1)
	s := r.String()
	if !strings.Contains(s, "id: title") || !strings.Contains(s, "line 1") {
		t.Errorf("rendered result: %q", s)
	}
}
