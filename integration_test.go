package repro

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lariat"
	"repro/internal/rng"
	"repro/internal/warehouse"
)

// TestPipelineToCSVToClassifier exercises the full user workflow across
// module boundaries: generate -> featurize -> serialize -> reload ->
// train -> evaluate, verifying the CSV round trip preserves the learning
// problem exactly.
func TestPipelineToCSVToClassifier(t *testing.T) {
	res, err := core.RunPipeline(core.DefaultPipelineConfig(777, 600))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := core.BuildDataset(res.Records, core.LabelByCategory, core.DefaultFeatures())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := dataset.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	trainA, testA := ds.Split(rng.New(5), 0.7)
	trainB, testB := reloaded.Split(rng.New(5), 0.7)

	modelA, err := core.TrainJobClassifier(trainA, core.PaperForest(9))
	if err != nil {
		t.Fatal(err)
	}
	modelB, err := core.TrainJobClassifier(trainB, core.PaperForest(9))
	if err != nil {
		t.Fatal(err)
	}
	accA, accB := modelA.Accuracy(testA), modelB.Accuracy(testB)
	if math.Abs(accA-accB) > 1e-12 {
		t.Errorf("CSV round trip changed results: %v vs %v", accA, accB)
	}
	if accA < 0.6 {
		t.Errorf("category accuracy = %v", accA)
	}
}

// TestWarehouseConsistentWithRecords cross-checks the warehouse aggregates
// against the raw pipeline records.
func TestWarehouseConsistentWithRecords(t *testing.T) {
	res, err := core.RunPipeline(core.DefaultPipelineConfig(778, 400))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]int{}
	for _, r := range res.Records {
		byLabel[r.AppLabel]++
	}
	for _, g := range res.Store.GroupBy(warehouse.ByApplication) {
		if g.Jobs != byLabel[g.Key] {
			t.Errorf("warehouse %s = %d jobs, records say %d", g.Key, g.Jobs, byLabel[g.Key])
		}
	}
	totals := res.Store.Totals()
	if totals.Jobs != len(res.Records) {
		t.Errorf("warehouse totals %d != %d records", totals.Jobs, len(res.Records))
	}
}

// TestPopulationLabelContract verifies the Lariat three-way labeling
// matches the generated populations across the whole pipeline.
func TestPopulationLabelContract(t *testing.T) {
	cfg := core.DefaultPipelineConfig(779, 500)
	res, err := core.RunPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth is the generator's, regenerated from the same seed
	// (jobs[i] is the job behind Records[i]); a record carries only what
	// Lariat could see.
	jobs := cluster.NewGenerator(cfg.Machine, cfg.Cluster).Generate(cfg.NumJobs)
	for i, r := range res.Records {
		if r.JobID != jobs[i].ID || r.Pop != jobs[i].Population {
			t.Fatalf("record %d (%s, %v) is not generated job %s (%v)", i, r.JobID, r.Pop, jobs[i].ID, jobs[i].Population)
		}
		switch jobs[i].Population {
		case cluster.PopNA:
			if r.AppLabel != lariat.NA {
				t.Fatalf("NA job labeled %q", r.AppLabel)
			}
		case cluster.PopUncategorized:
			if r.AppLabel != lariat.Uncategorized {
				t.Fatalf("uncategorized job labeled %q", r.AppLabel)
			}
		default:
			if r.AppLabel != jobs[i].App.Name || r.Unlabeled() {
				t.Fatalf("community job %s labeled %q", jobs[i].App.Name, r.AppLabel)
			}
		}
	}
}

// TestThresholdClassifyContract checks the production Classify API:
// threshold 0 classifies everything, threshold >1 classifies nothing, and
// the returned probability matches PredictProb's maximum.
func TestThresholdClassifyContract(t *testing.T) {
	res, err := core.RunPipeline(core.DefaultPipelineConfig(780, 500))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := core.BuildDataset(res.Records, core.LabelByCategory, core.DefaultFeatures())
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainJobClassifier(ds, core.PaperForest(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && i < ds.Len(); i++ {
		row := ds.X[i]
		_, prob, ok := model.Classify(row, 0)
		if !ok {
			t.Fatal("threshold 0 must classify")
		}
		if _, _, ok := model.Classify(row, 1.01); ok {
			t.Fatal("threshold > 1 must not classify")
		}
		cls, probs := model.PredictProb(row)
		if math.Abs(prob-probs[cls]) > 1e-12 {
			t.Fatal("Classify probability disagrees with PredictProb")
		}
	}
}

// TestSegmentsFlowThroughPipeline verifies segment summarization reaches
// the feature layer through the public pipeline config.
func TestSegmentsFlowThroughPipeline(t *testing.T) {
	cfg := core.DefaultPipelineConfig(781, 120)
	cfg.Segments = 3
	res, err := core.RunPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.FeatureOptions{COV: true, Derived: true, Segments: 3}
	ds, err := core.BuildDataset(res.Records, core.LabelByLariat, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumFeatures() != len(core.FeatureNames(opt)) {
		t.Fatal("segment feature count mismatch")
	}
	for _, rec := range res.Records {
		if len(rec.Summary.SegmentMeans) != 3 {
			t.Fatal("summary missing segments")
		}
	}
}

// TestCollectCSVMatchesGen runs the on-disk path (supremm-collect stage 1
// into a spool, stage 2 to CSV) and supremm-gen's in-memory pipeline at
// the same seed and job count: both must train on the jobs Lariat named
// and nothing else, with byte-identical CSVs. That also pins collect's
// per-job collector seed to RunPipeline's.
func TestCollectCSVMatchesGen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs two commands")
	}
	dir := t.TempDir()
	for _, name := range []string{"supremm-collect", "supremm-gen"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	run := func(name string, args ...string) {
		t.Helper()
		if out, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput(); err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
	}
	spool, collected, generated := filepath.Join(dir, "spool"), filepath.Join(dir, "collect.csv"), filepath.Join(dir, "gen.csv")
	run("supremm-collect", "-spool", spool, "-seed", "2014", "-jobs", "40")
	run("supremm-collect", "-spool", spool, "-summarize", "-o", collected)
	run("supremm-gen", "-seed", "2014", "-jobs", "40", "-o", generated)
	got, err := os.ReadFile(collected)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(generated)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("supremm-collect wrote %d CSV lines, supremm-gen %d; the CSVs differ",
			bytes.Count(got, []byte("\n")), bytes.Count(want, []byte("\n")))
	}
	if bytes.Count(want, []byte("\n")) < 2 {
		t.Fatalf("supremm-gen wrote no labeled job:\n%s", want)
	}
}
