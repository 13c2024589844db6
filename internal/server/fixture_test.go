package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml/forest"
)

// fixtures memoizes the package's read-only test inputs -- pipeline
// runs and the models trained on them -- so each is built once per test
// binary rather than once per test. The server reads its warehouse and
// never mutates a classifier, so sharing them is invisible; every test
// still builds its own Server, registry and model manager over them.
var fixtures struct {
	mu sync.Mutex
	m  map[string]*fixture
}

type fixture struct {
	once sync.Once
	v    any
	err  error
}

// shared returns the fixture named key, building it on first use.
func shared[T any](t testing.TB, key string, build func() (T, error)) T {
	t.Helper()
	fixtures.mu.Lock()
	if fixtures.m == nil {
		fixtures.m = map[string]*fixture{}
	}
	f := fixtures.m[key]
	if f == nil {
		f = &fixture{}
		fixtures.m[key] = f
	}
	fixtures.mu.Unlock()
	f.once.Do(func() { f.v, f.err = build() })
	if f.err != nil {
		t.Fatalf("building %s: %v", key, f.err)
	}
	return f.v.(T)
}

// pipeline is core.RunPipeline over the default config at seed and jobs.
func pipeline(t testing.TB, seed uint64, jobs int) *core.PipelineResult {
	return shared(t, fmt.Sprintf("pipeline %d/%d", seed, jobs), func() (*core.PipelineResult, error) {
		return core.RunPipeline(core.DefaultPipelineConfig(seed, jobs))
	})
}

// categoryData is the pipeline's category-labelled dataset over the
// default features.
func categoryData(t testing.TB, seed uint64, jobs int) *dataset.Dataset {
	res := pipeline(t, seed, jobs)
	return shared(t, fmt.Sprintf("category dataset %d/%d", seed, jobs), func() (*dataset.Dataset, error) {
		return core.BuildDataset(res.Records, core.LabelByCategory, core.DefaultFeatures())
	})
}

// categoryModel is a classifier trained by cfg on categoryData; name
// must identify cfg.
func categoryModel(t testing.TB, seed uint64, jobs int, name string, cfg core.ClassifierConfig) *core.JobClassifier {
	ds := categoryData(t, seed, jobs)
	return shared(t, fmt.Sprintf("%s on category %d/%d", name, seed, jobs), func() (*core.JobClassifier, error) {
		return core.TrainJobClassifier(ds, cfg)
	})
}

// paperForest is core.PaperForest(3) on categoryData, the model most
// serving tests put behind the classify routes.
func paperForest(t testing.TB, seed uint64, jobs int) *core.JobClassifier {
	return categoryModel(t, seed, jobs, "PaperForest(3)", core.PaperForest(3))
}

// smallForest is a forest of trees trees grown from seed on the
// 91/200 category data: the hot-swap and chaos suites' A and B models.
func smallForest(t testing.TB, seed uint64, trees int) *core.JobClassifier {
	return categoryModel(t, 91, 200, fmt.Sprintf("rf %d/%d", seed, trees), core.ClassifierConfig{
		Algo: core.AlgoForest, Forest: forest.Config{Trees: trees, Seed: seed},
	})
}

// paperSVM is core.PaperSVM(3) on the 91/200 category data: a compiled
// SVM, whose batches score through the row block.
func paperSVM(t testing.TB) *core.JobClassifier {
	return categoryModel(t, 91, 200, "PaperSVM(3)", core.PaperSVM(3))
}
