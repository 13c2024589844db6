package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/lariat"
	"repro/internal/ml/eval"
	"repro/internal/rng"
	"repro/internal/summarize"
	"repro/internal/warehouse"
)

func rngFor(seed uint64) *rng.Rand { return rng.New(seed) }

// smallPipeline runs a modest end-to-end pipeline once per test binary.
var pipelineCache = map[uint64]*PipelineResult{}

func runSmall(t *testing.T, seed uint64, n int) *PipelineResult {
	t.Helper()
	if r, ok := pipelineCache[seed]; ok {
		return r
	}
	cfg := DefaultPipelineConfig(seed, n)
	res, err := RunPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipelineCache[seed] = res
	return res
}

// generatedJobs regenerates the jobs runSmall's pipeline processed. The
// generator is deterministic in the seed, so jobs[i] is the ground truth
// behind res.Records[i]; a record itself carries only what Lariat saw.
func generatedJobs(seed uint64, n int) []*cluster.Job {
	cfg := DefaultPipelineConfig(seed, n)
	return cluster.NewGenerator(cfg.Machine, cfg.Cluster).Generate(n)
}

func TestFeatureNamesAndFeaturizeAgree(t *testing.T) {
	for _, opt := range []FeatureOptions{
		{},
		{COV: true},
		{Derived: true},
		DefaultFeatures(),
		{COV: true, Derived: true, Segments: 3},
	} {
		names := FeatureNames(opt)
		s := &summarize.Summary{Nodes: 2}
		if opt.Segments > 0 {
			s.SegmentMeans = make([][apps.NumMetrics]float64, opt.Segments)
		}
		row := Featurize(s, opt)
		if len(row) != len(names) {
			t.Errorf("opt %+v: %d names but %d features", opt, len(names), len(row))
		}
	}
}

func TestFeatureNamesUnique(t *testing.T) {
	names := FeatureNames(FeatureOptions{COV: true, Derived: true, Segments: 3})
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	res := runSmall(t, 42, 300)
	if len(res.Records) != 300 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if res.Store.Len() != 300 {
		t.Fatalf("warehouse = %d", res.Store.Len())
	}
	jobs := generatedJobs(42, 300)
	pops := map[cluster.Population]int{}
	for i, r := range res.Records {
		if r.JobID != jobs[i].ID {
			t.Fatalf("record %d is job %s, generated job is %s", i, r.JobID, jobs[i].ID)
		}
		if stored, ok := res.Store.Lookup(r.JobID); !ok || stored != r {
			t.Fatalf("warehouse holds a different record for job %s", r.JobID)
		}
		pops[r.Pop]++
		if r.Summary == nil {
			t.Fatal("record missing summary")
		}
		// Lariat label consistency with population.
		switch r.Pop {
		case cluster.PopNA:
			if r.AppLabel != lariat.NA {
				t.Errorf("NA job labeled %q", r.AppLabel)
			}
		case cluster.PopUncategorized:
			if r.AppLabel != lariat.Uncategorized {
				t.Errorf("uncategorized job labeled %q", r.AppLabel)
			}
		case cluster.PopCommunity:
			if r.AppLabel != jobs[i].App.Name {
				t.Errorf("community job %s labeled %q", jobs[i].App.Name, r.AppLabel)
			}
		}
	}
	if pops[cluster.PopCommunity] == 0 || pops[cluster.PopNA] == 0 || pops[cluster.PopUncategorized] == 0 {
		t.Errorf("population counts: %v", pops)
	}
}

func TestPipelineDeterminism(t *testing.T) {
	cfg := DefaultPipelineConfig(7, 40)
	r1, err := RunPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Records {
		a, b := r1.Records[i], r2.Records[i]
		if a.JobID != b.JobID || a.AppLabel != b.AppLabel || a.Summary.Means != b.Summary.Means {
			t.Fatalf("pipeline not deterministic at record %d", i)
		}
	}
}

// TestBootCutIsGenerationOrder pins what lets supremm-serve read its boot
// workload back out of the served warehouse: a Sharded seeded from a
// pipeline's records returns a cut (job-id order) holding the same
// pointers, in the same order, as the pipeline's Store (ingest order).
// The two agree because job ids count up from 1000001 in generation
// order and stay seven digits wide, so their byte order (the order
// Sharded's cut sorts by) is generation order; the second half checks
// that on ids alone, well past any boot workload's size.
func TestBootCutIsGenerationOrder(t *testing.T) {
	const seed, jobs = 7, 300
	res, err := RunPipeline(DefaultPipelineConfig(seed, jobs))
	if err != nil {
		t.Fatal(err)
	}
	sink := warehouse.NewSharded(warehouse.ShardedConfig{})
	for _, rec := range res.Records {
		if err := sink.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, want := sink.Records(), res.Store.Records()
	if len(got) != jobs || !slices.Equal(got, want) {
		t.Errorf("seed %d, %d jobs: the Sharded cut (%d records) is not the Store's ingest order (%d records)",
			seed, jobs, len(got), len(want))
	}

	const ids = 9000
	cfg := DefaultPipelineConfig(91, ids)
	gen := cluster.NewGenerator(cfg.Machine, cfg.Cluster)
	prev := ""
	for i := 0; i < ids; i++ {
		id := gen.Next().ID
		if len(id) != 7 || strings.Compare(prev, id) >= 0 {
			t.Fatalf("job %d: id %q is not a seven-digit id ascending past %q", i, id, prev)
		}
		prev = id
	}
}

func TestPipelineRejectsBadConfig(t *testing.T) {
	if _, err := RunPipeline(PipelineConfig{}); err == nil {
		t.Fatal("expected error for zero jobs")
	}
}

func TestBuildDatasetLariat(t *testing.T) {
	res := runSmall(t, 42, 300)
	d, err := BuildDataset(res.Records, LabelByLariat, DefaultFeatures())
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("empty dataset")
	}
	// Only community labels present.
	for _, c := range d.ClassNames {
		if c == lariat.NA || c == lariat.Uncategorized {
			t.Errorf("unlabeled class %q leaked into dataset", c)
		}
	}
	if d.NumFeatures() != len(FeatureNames(DefaultFeatures())) {
		t.Error("feature count mismatch")
	}
}

func TestLabelFuncs(t *testing.T) {
	res := runSmall(t, 42, 300)
	var rec *warehouse.Record
	var app *apps.App
	for i, j := range generatedJobs(42, 300) {
		if j.Population == cluster.PopCommunity {
			rec, app = res.Records[i], j.App
			break
		}
	}
	name, ok := LabelByLariat(rec)
	if !ok || name != app.Name {
		t.Errorf("LabelByLariat = %q, %v", name, ok)
	}
	cat, ok := LabelByCategory(rec)
	if !ok || cat != string(app.Category) {
		t.Errorf("LabelByCategory = %q, %v", cat, ok)
	}
	for _, r := range res.Records {
		if !r.Unlabeled() {
			continue
		}
		if l, ok := LabelByLariat(r); ok {
			t.Errorf("LabelByLariat kept unlabeled job %s as %q", r.JobID, l)
		}
		if c, ok := LabelByCategory(r); ok {
			t.Errorf("LabelByCategory kept unlabeled job %s as %q", r.JobID, c)
		}
	}
	exit, ok := LabelByExit(rec)
	if !ok || (exit != "success" && exit != "failure") {
		t.Errorf("LabelByExit = %q, %v", exit, ok)
	}
}

func TestTrainJobClassifierSVMvsRFvsNB(t *testing.T) {
	if testing.Short() {
		t.Skip("training is expensive")
	}
	res := runSmall(t, 42, 300)
	d, err := BuildDataset(res.Records, LabelByCategory, DefaultFeatures())
	if err != nil {
		t.Fatal(err)
	}
	// Keep only common categories to make the tiny problem stable.
	train := d.Balanced(rngFor(1), 25)
	for _, algo := range []ClassifierConfig{PaperSVM(1), PaperForest(1), {Algo: AlgoBayes}} {
		c, err := TrainJobClassifier(train, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo.Algo, err)
		}
		acc := c.Accuracy(train)
		if acc < 0.5 {
			t.Errorf("%s train accuracy = %v", algo.Algo, acc)
		}
		// Classify API consistency.
		label, prob, _ := c.Classify(d.X[0], 0.5)
		if prob < 0 || prob > 1 {
			t.Errorf("%s: probability %v", algo.Algo, prob)
		}
		if c.Classes()[0] == "" || label == "" {
			t.Errorf("%s: empty label", algo.Algo)
		}
	}
}

func TestTrainJobClassifierDoesNotMutateInput(t *testing.T) {
	res := runSmall(t, 42, 300)
	d, _ := BuildDataset(res.Records, LabelByCategory, DefaultFeatures())
	before := append([]float64(nil), d.X[0]...)
	if _, err := TrainJobClassifier(d, ClassifierConfig{Algo: AlgoBayes}); err != nil {
		t.Fatal(err)
	}
	for j := range before {
		if d.X[0][j] != before[j] {
			t.Fatal("training mutated the caller's dataset")
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	res := runSmall(t, 42, 300)
	d, _ := BuildDataset(res.Records, LabelByCategory, DefaultFeatures())
	if _, err := TrainJobClassifier(d, ClassifierConfig{Algo: "nope"}); err == nil {
		t.Fatal("expected unknown-algorithm error")
	}
}

// TestTrainJobClassifierRejectsNonFinite: a NaN or ±Inf training value
// (dataset.ReadCSV accepts them) is refused, naming its row and feature,
// before the scaler smears it over the column.
func TestTrainJobClassifierRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rows := [][]float64{{0, 1}, {1, 0}, {0, 2}, {2, 0}}
		rows[2][1] = bad
		d, err := dataset.New([]string{"cpu_user", "mem_used"}, rows, []string{"a", "b", "a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []ClassifierConfig{PaperForest(1), PaperSVM(1), {Algo: AlgoBayes}} {
			_, err := TrainJobClassifier(d, cfg)
			if err == nil || !strings.Contains(err.Error(), `row 2 feature "mem_used"`) {
				t.Errorf("%s with %v: err = %v, want one naming row 2 feature \"mem_used\"", cfg.Algo, bad, err)
			}
		}
	}
}

func TestImportanceOnlyForRF(t *testing.T) {
	res := runSmall(t, 42, 300)
	d, _ := BuildDataset(res.Records, LabelByCategory, DefaultFeatures())
	nb, _ := TrainJobClassifier(d, ClassifierConfig{Algo: AlgoBayes})
	if _, err := nb.Importance(); err == nil {
		t.Error("NB importance should error")
	}
	rf, err := TrainJobClassifier(d, PaperForest(3))
	if err != nil {
		t.Fatal(err)
	}
	imp, err := rf.Importance()
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != d.NumFeatures() {
		t.Errorf("importance length %d", len(imp))
	}
	ranked := RankFeatures(d.FeatureNames, imp)
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Importance > ranked[i-1].Importance {
			t.Fatal("RankFeatures not descending")
		}
	}
}

func TestPredictorSweep(t *testing.T) {
	res := runSmall(t, 42, 300)
	d, _ := BuildDataset(res.Records, LabelByCategory, DefaultFeatures())
	train, test := d.Split(rngFor(2), 0.7)
	rf, err := TrainJobClassifier(train, PaperForest(4))
	if err != nil {
		t.Fatal(err)
	}
	imp, _ := rf.Importance()
	ranked := RankFeatures(train.FeatureNames, imp)
	pts, err := PredictorSweep(train, test, ranked, PaperForest(5), []int{len(ranked), 5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	if pts[0].NumFeatures != len(ranked) || pts[2].NumFeatures != 1 {
		t.Error("sweep ordering wrong")
	}
	if _, err := PredictorSweep(train, test, ranked, PaperForest(5), []int{0}); err == nil {
		t.Error("count 0 should error")
	}
}

func TestEfficiencyRule(t *testing.T) {
	res := runSmall(t, 42, 300)
	rule := DefaultEfficiencyRule()
	label := LabelByEfficiency(rule)
	nIneff := 0
	for _, r := range res.Records {
		l, ok := label(r)
		if !ok {
			t.Fatal("efficiency labels every job")
		}
		if l == "inefficient" {
			nIneff++
		}
		// Rule consistency: jobs with catastrophic collapse are inefficient.
		if r.Summary.Catastrophe < rule.MaxCatastrophe && l != "inefficient" {
			t.Error("catastrophic job labeled efficient")
		}
	}
	frac := float64(nIneff) / float64(len(res.Records))
	if frac <= 0 || frac >= 0.9 {
		t.Errorf("inefficient fraction = %v, want non-degenerate", frac)
	}
}

func TestScoreRows(t *testing.T) {
	res := runSmall(t, 42, 300)
	d, _ := BuildDataset(res.Records, LabelByCategory, DefaultFeatures())
	c, _ := TrainJobClassifier(d, ClassifierConfig{Algo: AlgoBayes})
	na := warehouse.Records(res.Records).Filter(func(r *warehouse.Record) bool { return r.Pop == cluster.PopNA })
	rows := FeaturizeAll(na, DefaultFeatures())
	preds := c.Score(&dataset.Dataset{X: rows})
	if len(preds) != len(na) {
		t.Fatal("prediction count mismatch")
	}
	for _, p := range preds {
		if p.True != -1 {
			t.Fatal("unlabeled prediction has ground truth")
		}
		if math.IsNaN(p.MaxProb) {
			t.Fatal("NaN probability")
		}
	}
	curve := eval.ThresholdCurve(preds, eval.DefaultThresholds())
	if curve[len(curve)-1].Classified != 1 {
		t.Error("at threshold 0.05 nearly everything should classify")
	}
}
