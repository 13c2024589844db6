package core

import "repro/internal/warehouse"

// Runtime-class decision support: predict at submit time which
// runtime/outcome bucket a job will land in (arXiv 1605.00388 frames the
// same problem for scheduler backfill). The classes are deliberately
// coarse — a scheduler needs "will this finish inside the short-queue
// window, and is it likely to fail" — and reuse the existing
// JobClassifier/ModelManager machinery unchanged.

// Runtime-class wall-clock boundaries in seconds. The workload's
// signatures draw wall time lognormally around 2-20 hours, so 4h/12h
// splits the mass into three populated buckets.
const (
	RuntimeShortMax = 4 * 3600
	RuntimeLongMin  = 12 * 3600
)

// LabelByRuntimeClass buckets every job into a submit-time decision
// class: "failed" when the job script exited non-zero, otherwise
// "short" / "medium" / "long" by measured wall time.
func LabelByRuntimeClass(r *warehouse.Record) (string, bool) {
	if r.ExitCode != 0 {
		return "failed", true
	}
	switch w := r.WallSeconds; {
	case w < RuntimeShortMax:
		return "short", true
	case w < RuntimeLongMin:
		return "medium", true
	default:
		return "long", true
	}
}

// TrainRuntimeClassifier trains the runtime-class model over every
// record (unlike app classification, runtime class needs no Lariat
// label, so the Uncategorized/NA population trains too).
func TrainRuntimeClassifier(records []*warehouse.Record, cfg ClassifierConfig) (*JobClassifier, error) {
	ds, err := BuildDataset(records, LabelByRuntimeClass, DefaultFeatures())
	if err != nil {
		return nil, err
	}
	return TrainJobClassifier(ds, cfg)
}
