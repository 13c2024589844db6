package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestBuildDatasetObsParity asserts the traced featurize path returns the
// same dataset as the plain one.
func TestBuildDatasetObsParity(t *testing.T) {
	res, err := core.RunPipeline(core.DefaultPipelineConfig(91, 120))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.BuildDataset(res.Records, core.LabelByLariat, core.DefaultFeatures())
	if err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("r")
	traced, err := buildDataset(core.Instrumentation{Span: root}, res.Records, core.LabelByLariat, core.DefaultFeatures())
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != traced.Len() || len(plain.FeatureNames) != len(traced.FeatureNames) {
		t.Fatalf("shape diverged: %dx%d vs %dx%d",
			plain.Len(), len(plain.FeatureNames), traced.Len(), len(traced.FeatureNames))
	}
	for i := range plain.X {
		if plain.Y[i] != traced.Y[i] {
			t.Fatalf("row %d label diverged", i)
		}
		for j := range plain.X[i] {
			if plain.X[i][j] != traced.X[i][j] {
				t.Fatalf("row %d feature %d diverged: %v vs %v", i, j, plain.X[i][j], traced.X[i][j])
			}
		}
	}
	if tree := root.Tree(); len(tree.Children) != 1 || tree.Children[0].Name != "featurize" {
		t.Errorf("expected one featurize child span, got %+v", tree.Children)
	}
}
