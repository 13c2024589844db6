package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/apps"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/warehouse"
)

// RankedFeature pairs a feature name with its importance.
type RankedFeature struct {
	Name       string
	Importance float64
}

// RankFeatures sorts feature importances descending (Figure 5's ordering).
func RankFeatures(names []string, importance []float64) []RankedFeature {
	if len(names) != len(importance) {
		panic("core: names/importance length mismatch")
	}
	idx := stats.ArgsortDesc(importance)
	out := make([]RankedFeature, len(idx))
	for i, j := range idx {
		out[i] = RankedFeature{Name: names[j], Importance: importance[j]}
	}
	return out
}

// SweepPoint is one retrained model of the predictor-count sweep.
type SweepPoint struct {
	NumFeatures int
	Features    []string
	Accuracy    float64
}

// PredictorSweep reproduces Figure 6: features are ranked by importance,
// and for each cutoff count a fresh model is trained on the top-k features
// and evaluated on the test set. counts of 0 means every k from all
// features down to 1.
func PredictorSweep(train, test *dataset.Dataset, ranked []RankedFeature, cfg ClassifierConfig, counts []int) ([]SweepPoint, error) {
	if len(counts) == 0 {
		for k := len(ranked); k >= 1; k-- {
			counts = append(counts, k)
		}
	}
	var out []SweepPoint
	for _, k := range counts {
		if k < 1 || k > len(ranked) {
			return nil, fmt.Errorf("core: sweep count %d out of range", k)
		}
		names := make([]string, k)
		for i := 0; i < k; i++ {
			names[i] = ranked[i].Name
		}
		subTrain, err := train.SelectFeatures(names)
		if err != nil {
			return nil, err
		}
		subTest, err := test.SelectFeatures(names)
		if err != nil {
			return nil, err
		}
		model, err := TrainJobClassifier(subTrain, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{NumFeatures: k, Features: names, Accuracy: model.Accuracy(subTest)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NumFeatures > out[j].NumFeatures })
	return out, nil
}

// EfficiencyRule is the paper's Section II manual labeling rule: a job is
// inefficient when any of the listed conditions holds.
type EfficiencyRule struct {
	MaxCPUUser     float64 // inefficient if CPU_USER below this (paper: 0.30)
	MaxCPI         float64 // inefficient if CPI below this (paper: 2)*
	MinCPLD        float64 // inefficient if CPLD above this (paper: 0.1)*
	MaxCatastrophe float64 // inefficient if CATASTROPHE below this (paper: 0.2)
	MinImbalance   float64 // inefficient if CPU_USER_IMBALANCE above this (paper: 1)
}

// *The paper prints "CPI values < 2; CPLD > 0.1" as inefficiency marks;
// the thresholds here are configurable because the printed values read as
// transposed for CPI (low CPI is usually good). DefaultEfficiencyRule uses
// directions that produce a separable, meaningful labeling on this
// generator's scales.

// DefaultEfficiencyRule returns thresholds tuned to this generator's
// metric scales, preserving the paper's property that the labeling is a
// deterministic disjunction of attribute thresholds (hence separable).
func DefaultEfficiencyRule() EfficiencyRule {
	return EfficiencyRule{
		MaxCPUUser:     0.55,
		MaxCPI:         0.75, // the paper's printed "CPI < 2" clause, rescaled
		MinCPLD:        7.5,
		MaxCatastrophe: 0.2,
		MinImbalance:   0.40,
	}
}

// Inefficient applies the rule to a summary-derived feature row.
func (r EfficiencyRule) Inefficient(rec *warehouse.Record) bool {
	s := rec.Summary
	if s.Means[apps.CPUUser] < r.MaxCPUUser {
		return true
	}
	if r.MaxCPI > 0 && s.Means[apps.CPI] < r.MaxCPI {
		return true
	}
	if r.MinCPLD > 0 && s.Means[apps.CPLD] > r.MinCPLD {
		return true
	}
	if s.Catastrophe < r.MaxCatastrophe {
		return true
	}
	if s.CPUUserImbalance > r.MinImbalance {
		return true
	}
	return false
}

// Margin returns how far a job sits from the rule's nearest decision
// boundary, as a fraction of the threshold value (0 = exactly on a
// boundary). The paper's Section II dataset "were selected to be
// completely separable"; selecting jobs with Margin above a band
// reproduces that selection.
func (r EfficiencyRule) Margin(rec *warehouse.Record) float64 {
	s := rec.Summary
	margin := math.Inf(1)
	rel := func(value, threshold float64) {
		if threshold <= 0 {
			return
		}
		m := math.Abs(value-threshold) / threshold
		if m < margin {
			margin = m
		}
	}
	rel(s.Means[apps.CPUUser], r.MaxCPUUser)
	if r.MaxCPI > 0 {
		rel(s.Means[apps.CPI], r.MaxCPI)
	}
	if r.MinCPLD > 0 {
		rel(s.Means[apps.CPLD], r.MinCPLD)
	}
	rel(s.Catastrophe, r.MaxCatastrophe)
	rel(s.CPUUserImbalance, r.MinImbalance)
	return margin
}

// LabelByEfficiency returns a LabelFunc applying the rule.
func LabelByEfficiency(rule EfficiencyRule) LabelFunc {
	return func(rec *warehouse.Record) (string, bool) {
		if rule.Inefficient(rec) {
			return "inefficient", true
		}
		return "efficient", true
	}
}
