package core

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/summarize"
	"repro/internal/warehouse"
)

// mockSummary builds a summary with distinguishable segment values.
func mockSummary(segments int) *summarize.Summary {
	s := &summarize.Summary{Nodes: 4, WallSeconds: 3600, Catastrophe: 0.9, CPUUserImbalance: 0.1}
	for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
		s.Means[m] = float64(m) + 1
		s.COVs[m] = 0.01 * float64(m)
	}
	s.SegmentMeans = make([][apps.NumMetrics]float64, segments)
	for seg := 0; seg < segments; seg++ {
		for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
			s.SegmentMeans[seg][m] = (float64(m) + 1) * float64(seg+1)
		}
	}
	return s
}

func TestSegmentShapeFeatures(t *testing.T) {
	opt := FeatureOptions{Segments: 3, SegmentShape: true}
	names := FeatureNames(opt)
	s := mockSummary(3)
	row := Featurize(s, opt)
	if len(row) != len(names) {
		t.Fatalf("row %d vs names %d", len(row), len(names))
	}
	// Segment means are base*(seg+1), so shape ratios are exactly 2 and 3.
	for i := 0; i < int(apps.NumMetrics); i++ {
		if math.Abs(row[i]-2) > 1e-12 {
			t.Fatalf("shape2 feature %d = %v, want 2", i, row[i])
		}
	}
	for i := int(apps.NumMetrics); i < 2*int(apps.NumMetrics); i++ {
		if math.Abs(row[i]-3) > 1e-12 {
			t.Fatalf("shape3 feature %d = %v, want 3", i, row[i])
		}
	}
	// Names carry the _SHAPE marker.
	if names[0] != apps.MetricID(0).String()+"_SHAPE2" {
		t.Errorf("first shape name = %q", names[0])
	}
}

func TestSegmentShapeZeroBase(t *testing.T) {
	opt := FeatureOptions{Segments: 2, SegmentShape: true}
	s := mockSummary(2)
	s.SegmentMeans[0][apps.Flops] = 0
	row := Featurize(s, opt)
	if row[int(apps.Flops)] != 1 {
		t.Errorf("zero-base ratio should default to 1, got %v", row[int(apps.Flops)])
	}
}

func TestSegmentShapeDegradesWithoutSegments(t *testing.T) {
	// Summary with no segments: shape ratios fall back to mean/mean = 1.
	opt := FeatureOptions{Segments: 3, SegmentShape: true}
	s := mockSummary(0)
	row := Featurize(s, opt)
	for i, v := range row {
		if v != 1 {
			t.Fatalf("feature %d = %v, want 1 under degradation", i, v)
		}
	}
}

func TestSegmentAbsoluteFeatures(t *testing.T) {
	opt := FeatureOptions{Segments: 2}
	s := mockSummary(2)
	row := Featurize(s, opt)
	if row[0] != s.SegmentMeans[0][0] || row[int(apps.NumMetrics)] != s.SegmentMeans[1][0] {
		t.Error("absolute segment features misordered")
	}
}

func TestDerivedFeatureValues(t *testing.T) {
	opt := FeatureOptions{Derived: true}
	s := mockSummary(0)
	names := FeatureNames(opt)
	row := Featurize(s, opt)
	find := func(name string) float64 {
		for i, n := range names {
			if n == name {
				return row[i]
			}
		}
		t.Fatalf("feature %q missing", name)
		return 0
	}
	if find("NODES") != 4 || find("CATASTROPHE") != 0.9 || find("CPU_USER_IMBALANCE") != 0.1 {
		t.Error("derived feature values wrong")
	}
}

func TestEfficiencyMargin(t *testing.T) {
	rule := DefaultEfficiencyRule()
	s := mockSummary(0)
	s.Means[apps.CPUUser] = rule.MaxCPUUser // exactly on the boundary
	s.Means[apps.CPI] = rule.MaxCPI * 2
	s.Means[apps.CPLD] = rule.MinCPLD / 2
	s.Catastrophe = 0.9
	s.CPUUserImbalance = 0.05
	rec := &warehouse.Record{Summary: s}
	if m := rule.Margin(rec); m != 0 {
		t.Errorf("on-boundary margin = %v, want 0", m)
	}
	s.Means[apps.CPUUser] = rule.MaxCPUUser * 1.5
	if m := rule.Margin(rec); m <= 0 {
		t.Errorf("off-boundary margin = %v, want positive", m)
	}
	// Disabled clauses (threshold <= 0) must not contribute.
	norule := EfficiencyRule{MaxCatastrophe: 0.2, MinImbalance: 0.4, MaxCPUUser: 0.5}
	if m := norule.Margin(rec); math.IsInf(m, 1) {
		t.Error("margin should be finite with active clauses")
	}
}

func TestJobClassifierScoreMatchesPredictProb(t *testing.T) {
	res := runSmall(t, 42, 300)
	d, err := BuildDataset(res.Records, LabelByCategory, DefaultFeatures())
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainJobClassifier(d, ClassifierConfig{Algo: AlgoBayes})
	if err != nil {
		t.Fatal(err)
	}
	preds := model.Score(d)
	for i := 0; i < 10; i++ {
		cls, probs := model.PredictProb(d.X[i])
		if preds[i].Pred != cls || preds[i].MaxProb != probs[cls] || preds[i].True != d.Y[i] {
			t.Fatal("Score disagrees with PredictProb")
		}
	}
}

func TestPredictMatchesModelFamilies(t *testing.T) {
	res := runSmall(t, 42, 300)
	d, err := BuildDataset(res.Records, LabelByCategory, DefaultFeatures())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []ClassifierConfig{{Algo: AlgoBayes}, PaperForest(3)} {
		model, err := TrainJobClassifier(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Predict must return a valid class index for every row.
		for i := 0; i < 20; i++ {
			cls := model.Predict(d.X[i])
			if cls < 0 || cls >= len(model.Classes()) {
				t.Fatalf("%s: Predict returned %d", cfg.Algo, cls)
			}
		}
	}
}
