package core

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/testkit"
)

// synthModel trains a fast NB classifier on a synthetic dataset.
func synthModel(t *testing.T, seed uint64, features int) *JobClassifier {
	t.Helper()
	ds := testkit.SynthClassification(testkit.SynthConfig{Seed: seed, Features: features, RowsPerCls: 20})
	m, err := TrainJobClassifier(ds, ClassifierConfig{Algo: AlgoBayes})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// managerCase parameterises the swap suite over a served model family:
// how to build an empty manager, a model of a given schema width, and a
// read that exercises the model the way a request would.
type managerCase[M Servable] struct {
	prefix  string
	manager func(reg *obs.Registry) *Manager[M]
	model   func(t *testing.T, seed uint64, features int) M
	// invalid are structurally broken models Swap must refuse.
	invalid map[string]M
	use     func(m M, row []float64)
}

func classifierCase() managerCase[*JobClassifier] {
	return managerCase[*JobClassifier]{
		prefix:  "model",
		manager: NewModelManager,
		model:   synthModel,
		invalid: map[string]*JobClassifier{
			"featureless":            {},
			"duplicate feature name": {Features: []string{"A", "B", "A"}},
			"empty feature name":     {Features: []string{"A", ""}},
		},
		use: func(m *JobClassifier, row []float64) { m.Classify(row, 0.5) },
	}
}

func discoveryCase() managerCase[*DiscoveryModel] {
	return managerCase[*DiscoveryModel]{
		prefix:  "discover",
		manager: NewDiscoveryManager,
		model: func(t *testing.T, seed uint64, features int) *DiscoveryModel {
			t.Helper()
			// K varies with the seed: a refit may change K freely as long
			// as the schema holds.
			m, err := FitDiscovery(discoveryRows(seed, 3, 20, features), discoveryFeatures(features),
				DiscoveryConfig{K: 2 + int(seed%2), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		invalid: map[string]*DiscoveryModel{
			"featureless":            {},
			"duplicate feature name": {Features: []string{"A", "B", "A"}},
			"empty feature name":     {Features: []string{"A", ""}},
		},
		use: func(m *DiscoveryModel, row []float64) {
			if _, err := m.Assign(row); err != nil {
				panic(err)
			}
		},
	}
}

// TestManagerSuite runs every swap/validation/concurrency case over both
// served model families: one manager implementation, one contract.
func TestManagerSuite(t *testing.T) {
	t.Run("classifier", func(t *testing.T) { runManagerSuite(t, classifierCase()) })
	t.Run("discovery", func(t *testing.T) { runManagerSuite(t, discoveryCase()) })
}

func runManagerSuite[M Servable](t *testing.T, c managerCase[M]) {
	counter := func(reg *obs.Registry, outcome string) uint64 {
		return reg.Counter(c.prefix+"_swap_total", "outcome", outcome).Value()
	}

	t.Run("Empty", func(t *testing.T) {
		mm := c.manager(nil)
		if mm.View() != nil {
			t.Fatal("empty manager has a view")
		}
		if mm.Generation() != 0 {
			t.Fatalf("empty generation = %d", mm.Generation())
		}
		if _, err := mm.ReloadFromFile(""); err == nil {
			t.Fatal("reload with no path configured succeeded")
		}
	})

	t.Run("SwapAndIndex", func(t *testing.T) {
		reg := obs.NewRegistry()
		mm := c.manager(reg)
		m := c.model(t, 1, 6)
		gen, err := mm.Swap(m)
		if err != nil || gen != 1 {
			t.Fatalf("first swap: gen=%d err=%v", gen, err)
		}
		v := mm.View()
		if v.Model != m || v.Generation != 1 {
			t.Fatalf("view holds the wrong model or generation %d, want the swapped model at gen 1", v.Generation)
		}
		if v.NumFeatures() != len(m.FeatureNames()) {
			t.Fatalf("NumFeatures = %d", v.NumFeatures())
		}
		for i, name := range m.FeatureNames() {
			got, ok := v.FeatureIndex(name)
			if !ok || got != i {
				t.Fatalf("FeatureIndex(%q) = (%d,%v), want (%d,true)", name, got, ok, i)
			}
		}
		if _, ok := v.FeatureIndex("NOPE"); ok {
			t.Fatal("unknown feature resolved")
		}
		if got := reg.Gauge(c.prefix + "_generation").Value(); got != 1 {
			t.Errorf("%s_generation = %v", c.prefix, got)
		}
		if got := counter(reg, "ok"); got != 1 {
			t.Errorf("swap ok counter = %d", got)
		}

		// A compatible retrain bumps the generation; old view stays usable.
		if gen, err = mm.Swap(c.model(t, 2, 6)); err != nil || gen != 2 {
			t.Fatalf("second swap: gen=%d err=%v", gen, err)
		}
		if v.Generation != 1 || mm.View().Generation != 2 {
			t.Fatalf("old view gen %d / new view gen %d", v.Generation, mm.View().Generation)
		}
	})

	t.Run("SchemaMismatchKeepsOldModel", func(t *testing.T) {
		reg := obs.NewRegistry()
		mm := c.manager(reg)
		if _, err := mm.Swap(c.model(t, 1, 6)); err != nil {
			t.Fatal(err)
		}
		old := mm.View()
		gen, err := mm.Swap(c.model(t, 2, 4)) // different feature width
		if !errors.Is(err, ErrSchemaMismatch) {
			t.Fatalf("mismatched swap err = %v, want ErrSchemaMismatch", err)
		}
		// Every failure reports the still-serving generation, never 0.
		if gen != 1 || mm.View() != old {
			t.Fatalf("rejected swap disturbed the serving model (gen %d)", gen)
		}
		var none M
		if gen, err := mm.Swap(none); err == nil || gen != 1 || mm.View() != old {
			t.Fatalf("nil swap over a serving model: gen=%d err=%v", gen, err)
		}
		if got := counter(reg, "rejected"); got != 1 {
			t.Errorf("rejected counter = %d", got)
		}
		if got := counter(reg, "error"); got != 1 {
			t.Errorf("error counter = %d", got)
		}
		if got := reg.Gauge(c.prefix + "_generation").Value(); got != 1 {
			t.Errorf("%s_generation = %v after rejection", c.prefix, got)
		}
	})

	t.Run("SwapValidation", func(t *testing.T) {
		mm := c.manager(nil)
		var none M
		if _, err := mm.Swap(none); err == nil {
			t.Error("nil model accepted")
		}
		for name, bad := range c.invalid {
			if _, err := mm.Swap(bad); err == nil {
				t.Errorf("%s model accepted", name)
			}
		}
		if mm.View() != nil || mm.Generation() != 0 {
			t.Error("failed swaps left state behind")
		}
	})

	// ConcurrentSwap hammers View from many goroutines while models swap
	// underneath: run under -race, every observed view must be internally
	// consistent (generation matches the installed model).
	t.Run("ConcurrentSwap", func(t *testing.T) {
		mm := c.manager(nil)
		a, b := c.model(t, 1, 6), c.model(t, 2, 6)
		if _, err := mm.Swap(a); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				row := make([]float64, 6)
				for {
					select {
					case <-stop:
						return
					default:
					}
					v := mm.View()
					if v == nil {
						t.Error("view went nil mid-swap")
						return
					}
					want := a
					if v.Generation%2 == 0 {
						want = b
					}
					if v.Model != want {
						t.Errorf("torn view: generation %d paired with wrong model", v.Generation)
						return
					}
					c.use(v.Model, row)
				}
			}()
		}
		for i := 0; i < 50; i++ {
			next := b
			if i%2 == 1 {
				next = a
			}
			if _, err := mm.Swap(next); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		if mm.Generation() != 51 {
			t.Fatalf("generation = %d, want 51", mm.Generation())
		}
	})
}

func TestModelManagerReloadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	m := synthModel(t, 3, 6)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	mm := NewModelManager(nil)
	gen, err := mm.ReloadFromFile(path)
	if err != nil || gen != 1 {
		t.Fatalf("reload: gen=%d err=%v", gen, err)
	}
	if mm.Path() != path {
		t.Fatalf("path not remembered: %q", mm.Path())
	}
	// A bare reload repeats the remembered path.
	if gen, err = mm.ReloadFromFile(""); err != nil || gen != 2 {
		t.Fatalf("bare reload: gen=%d err=%v", gen, err)
	}
	// A missing file fails without disturbing the serving model or path.
	if _, err := mm.ReloadFromFile(filepath.Join(dir, "nope.bin")); err == nil {
		t.Fatal("reload from missing file succeeded")
	}
	if mm.Generation() != 2 || mm.Path() != path {
		t.Fatalf("failed reload disturbed state: gen=%d path=%q", mm.Generation(), mm.Path())
	}
	// Garbage on disk is a load error, not a crash.
	bad := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(bad, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mm.ReloadFromFile(bad); err == nil {
		t.Fatal("garbage model accepted")
	}
	if mm.Path() != path {
		t.Fatalf("failed reload replaced the default path: %q", mm.Path())
	}
}

// TestDiscoveryManagerHasNoFileReload: only the classifier family has a
// serialized form; the discovery manager refuses instead of panicking.
func TestDiscoveryManagerHasNoFileReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fit.bin")
	if err := os.WriteFile(path, []byte("anything"), 0o644); err != nil {
		t.Fatal(err)
	}
	dm := NewDiscoveryManager(nil)
	if gen, err := dm.ReloadFromFile(path); err == nil || gen != 0 {
		t.Fatalf("discovery reload: gen=%d err=%v, want an error", gen, err)
	}
	if dm.Path() != "" {
		t.Fatalf("failed reload remembered path %q", dm.Path())
	}
}
