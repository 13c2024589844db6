package ingest

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lariat"
	"repro/internal/taccstats"
	"repro/internal/testkit"
	"repro/internal/warehouse"
)

// TestTrainFromStream proves an ingest-fed warehouse is a training
// corpus: a seeded job set streamed through the real server into
// warehouse.Sharded featurizes, labels and trains exactly as the batch
// pipeline's records do, with no conversion step in between.
func TestTrainFromStream(t *testing.T) {
	const seed, wallCap = 77, 2400
	h := newHarness(t, Config{Shards: 4})
	jobs := genTestJobs(t, seed, 120, 2, wallCap)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := h.dialClient("train-client")
	for _, tj := range jobs {
		sendJob(ctx, t, c, tj, 4)
	}
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	h.drainAndCheck()
	snap := h.sink.Snapshot()
	if snap.Len() != len(jobs) {
		t.Fatalf("warehouse holds %d jobs, streamed %d", snap.Len(), len(jobs))
	}

	// (a) The streamed records featurize to the same rows, bit for bit,
	// as the reference summaries of the jobs Lariat could categorize
	// (snapshot order is job-id order).
	opt := core.DefaultFeatures()
	ds, err := core.BuildDataset(snap.Records, core.LabelByCategory, opt)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].meta.JobID < jobs[j].meta.JobID })
	var want [][]float64
	for _, tj := range jobs {
		if l := tj.meta.AppLabel; l != lariat.Uncategorized && l != lariat.NA {
			want = append(want, core.Featurize(refSummary(t, tj.arch, taccstats.DefaultConfig()), opt))
		}
	}
	if len(want) == 0 || len(want) == len(jobs) {
		t.Fatalf("workload has %d of %d labeled jobs; the test needs both populations", len(want), len(jobs))
	}
	if got, ref := testkit.HashFloats(ds.X...), testkit.HashFloats(want...); got != ref {
		t.Fatalf("streamed corpus digest %s (%d rows), reference %s (%d rows)", got, ds.Len(), ref, len(want))
	}

	// (b) The warehouse groups by what Lariat saw, never by the
	// generator's name for a custom code.
	groups := map[string]int{}
	for _, g := range snap.GroupBy(warehouse.ByApplication) {
		if strings.HasPrefix(g.Key, "custom-") {
			t.Errorf("application group %q is generator ground truth, not a Lariat label", g.Key)
		}
		groups[g.Key] = g.Jobs
	}
	if groups[lariat.Uncategorized] == 0 || groups[lariat.NA] == 0 {
		t.Fatalf("application groups %v lack the Uncategorized/NA populations", groups)
	}
	unlabeled := 0
	for _, r := range snap.Records {
		if r.Unlabeled() {
			unlabeled++
		}
	}
	if unlabeled != groups[lariat.Uncategorized]+groups[lariat.NA] || unlabeled != len(jobs)-len(want) {
		t.Fatalf("unlabeled predicate counts %d jobs, groups say %d, reference %d",
			unlabeled, groups[lariat.Uncategorized]+groups[lariat.NA], len(jobs)-len(want))
	}

	// (c) The exit code rides the meta frame, so outcome labels survive
	// the stream: the outcome buckets of the snapshot (failed on a
	// non-zero exit, else short, medium or long by wall time) are the
	// batch pipeline's over the same seeded jobs under the same wall cap,
	// the failed bucket among them.
	res, err := core.RunPipeline(core.DefaultPipelineConfig(seed, len(jobs)))
	if err != nil {
		t.Fatal(err)
	}
	capped := make([]*warehouse.Record, len(res.Records))
	for i, r := range res.Records {
		c := *r
		c.WallSeconds = min(c.WallSeconds, wallCap)
		capped[i] = &c
	}
	outcome := func(r *warehouse.Record) (string, bool) {
		switch w := r.WallSeconds; {
		case r.ExitCode != 0:
			return "failed", true
		case w < 4*3600:
			return "short", true
		case w < 12*3600:
			return "medium", true
		default:
			return "long", true
		}
	}
	classCounts := func(recs []*warehouse.Record) map[string]int {
		ds, err := core.BuildDataset(recs, outcome, opt)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for i, n := range ds.ClassCounts() {
			counts[ds.ClassNames[i]] = n
		}
		return counts
	}
	streamed, batched := classCounts(snap.Records), classCounts(capped)
	if !reflect.DeepEqual(streamed, batched) || streamed["failed"] == 0 {
		t.Fatalf("outcome buckets over the stream %v, over the batch pipeline %v (want equal, with failed jobs)", streamed, batched)
	}

	// (d) A classifier trained on the stream hot-swaps over a champion
	// trained on that batch run: same schema, by construction.
	batch, err := core.BuildDataset(res.Records, core.LabelByCategory, opt)
	if err != nil {
		t.Fatal(err)
	}
	champion, err := core.TrainJobClassifier(batch, core.ClassifierConfig{Algo: core.AlgoBayes})
	if err != nil {
		t.Fatal(err)
	}
	challenger, err := core.TrainJobClassifier(ds, core.ClassifierConfig{Algo: core.AlgoBayes})
	if err != nil {
		t.Fatal(err)
	}
	models := core.NewModelManager(nil)
	if _, err := models.Swap(champion); err != nil {
		t.Fatal(err)
	}
	gen, err := models.Swap(challenger)
	if err != nil {
		t.Fatalf("stream-trained model rejected by the schema check: %v", err)
	}
	if gen != 2 || models.View().Model != challenger {
		t.Fatalf("generation %d does not serve the stream-trained model", gen)
	}
}
