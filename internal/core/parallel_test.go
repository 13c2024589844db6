package core

import (
	"math"
	"testing"
)

// TestPipelineWorkerParity: the generated records — labels, summaries and
// features — are bit-identical at any collection worker count, because
// each job's collection noise comes from Split(jobIndex) rather than a
// shared advancing stream.
func TestPipelineWorkerParity(t *testing.T) {
	mk := func(workers int) *PipelineResult {
		cfg := DefaultPipelineConfig(77, 120)
		cfg.Workers = workers
		res, err := RunPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := mk(1)
	refRows := FeaturizeAll(ref.Records, DefaultFeatures())
	for _, w := range []int{0, 3, 16} {
		got := mk(w)
		if len(got.Records) != len(ref.Records) {
			t.Fatalf("workers=%d: %d records, want %d", w, len(got.Records), len(ref.Records))
		}
		rows := FeaturizeAll(got.Records, DefaultFeatures())
		for i := range ref.Records {
			if got.Records[i].JobID != ref.Records[i].JobID {
				t.Fatalf("workers=%d: job order diverged at %d", w, i)
			}
			if got.Records[i].AppLabel != ref.Records[i].AppLabel {
				t.Fatalf("workers=%d: label diverged for job %s", w, got.Records[i].JobID)
			}
			for f := range refRows[i] {
				if math.Float64bits(rows[i][f]) != math.Float64bits(refRows[i][f]) {
					t.Fatalf("workers=%d: feature[%d][%d] = %v, want %v",
						w, i, f, rows[i][f], refRows[i][f])
				}
			}
		}
	}
}
