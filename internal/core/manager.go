package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// ErrSchemaMismatch reports a model swap rejected because the incoming
// model's feature schema is incompatible with the one currently serving.
// Callers (e.g. the admin reload endpoint) can map it to a conflict
// status while other load failures stay bad-request errors.
var ErrSchemaMismatch = errors.New("core: model feature schema mismatch")

// Servable is what a model family exposes to be published by a Manager.
// comparable lets Swap refuse a nil pointer.
type Servable interface {
	comparable
	// FeatureNames is the feature schema in vector order.
	FeatureNames() []string
	// Serving names the algorithm answering requests and whether it runs
	// on the compiled zero-allocation engine (see internal/ml/compile).
	Serving() (algo string, compiled bool)
}

// View is one immutable generation of a serving model: the model, its
// generation number, and a precomputed feature name -> index map so
// request feature resolution is O(1) per attribute instead of a linear
// scan over the schema. Views are never mutated after publication, so a
// request that captures a view once observes a single self-consistent
// model no matter how many swaps land mid-flight.
type View[M Servable] struct {
	Model      M
	Generation uint64

	index map[string]int
}

type (
	ModelView     = View[*JobClassifier]
	DiscoveryView = View[*DiscoveryModel]
)

// FeatureIndex resolves a feature name to its position in the model's
// feature vector.
func (v *View[M]) FeatureIndex(name string) (int, bool) {
	i, ok := v.index[name]
	return i, ok
}

// NumFeatures returns the model's feature vector width.
func (v *View[M]) NumFeatures() int { return len(v.index) }

// Compiled reports whether the published model serves through the
// compiled engine: always for a forest, SVM or NB classifier, never for
// the stack or a discovery fit. The engine follows from the family; a
// model that fails to compile is never constructed, let alone published.
func (v *View[M]) Compiled() bool {
	_, compiled := v.Model.Serving()
	return compiled
}

// Annotate stamps the serving model's identity (generation, compiled
// flag, algorithm) onto an in-flight wide event, so a recorded request
// is attributable to the exact model that answered it even across
// hot-swaps. Nil-safe on both sides; every governed route shares it so
// the annotation cannot drift between them.
func (v *View[M]) Annotate(a *flight.Active) {
	if v == nil {
		return
	}
	algo, compiled := v.Model.Serving()
	a.SetModel(v.Generation, compiled, algo)
}

// Manager publishes a model to concurrent readers behind an atomic
// pointer and swaps it without blocking them: readers load the current
// View with one atomic load, writers validate and install a fully-built
// replacement view. The zero manager is not ready; use NewModelManager
// or NewDiscoveryManager.
type Manager[M Servable] struct {
	cur atomic.Pointer[View[M]]

	mu   sync.Mutex // serializes swaps and the default reload path
	gen  uint64     // generation of the last installed view (under mu)
	path string     // default file for ReloadFromFile("") (under mu)

	// load decodes a serialized model for file reload; nil for a family
	// with no serialized form.
	load func(io.Reader) (M, error)

	generation *obs.Gauge
	swapOK     *obs.Counter
	swapRej    *obs.Counter
	swapErr    *obs.Counter
}

type (
	ModelManager     = Manager[*JobClassifier]
	DiscoveryManager = Manager[*DiscoveryModel]
)

// newManager wires the <prefix>_generation / <prefix>_swap_total{outcome}
// metric triple; reg may be nil.
func newManager[M Servable](reg *obs.Registry, prefix, what string) *Manager[M] {
	reg.Help(prefix+"_generation", "Generation number of the serving "+what+" (0 = none loaded).")
	reg.Help(prefix+"_swap_total", "Hot-swap attempts for the "+what+" by outcome.")
	return &Manager[M]{
		generation: reg.Gauge(prefix + "_generation"),
		swapOK:     reg.Counter(prefix+"_swap_total", "outcome", "ok"),
		swapRej:    reg.Counter(prefix+"_swap_total", "outcome", "rejected"),
		swapErr:    reg.Counter(prefix+"_swap_total", "outcome", "error"),
	}
}

// NewModelManager returns an empty classifier manager (View returns nil
// until the first Swap). reg may be nil; when set, the manager exports
// model_generation and model_swap_total{outcome} metrics.
func NewModelManager(reg *obs.Registry) *ModelManager {
	m := newManager[*JobClassifier](reg, "model", "model classifier")
	m.load = LoadJobClassifier
	return m
}

// NewDiscoveryManager returns an empty discovery manager exporting
// discover_generation and discover_swap_total{outcome}. A refit may
// change K freely but, like any swap, must keep the feature name set of
// the fit it replaces.
func NewDiscoveryManager(reg *obs.Registry) *DiscoveryManager {
	return newManager[*DiscoveryModel](reg, "discover", "discovery fit")
}

// View returns the current model view, or nil when no model is loaded.
// The returned view is immutable; hold it for the duration of a request
// to see one consistent generation.
func (m *Manager[M]) View() *View[M] {
	if m == nil {
		return nil
	}
	return m.cur.Load()
}

// Generation returns the generation of the serving model (0 before the
// first successful swap).
func (m *Manager[M]) Generation() uint64 {
	v := m.View()
	if v == nil {
		return 0
	}
	return v.Generation
}

// validateSwap builds the incoming schema's feature name -> index map,
// rejecting empty and duplicate names (which would make name-keyed
// requests ambiguous), and, when a model is already serving, checks it
// structurally against that one: the feature name sets must match (order
// may differ -- clients address features by name, the prebuilt index
// absorbs any reordering, and a silent schema change would misroute
// every in-flight request body).
func validateSwap(next, serving []string) (map[string]int, error) {
	if len(next) == 0 {
		return nil, errors.New("core: cannot swap in a model with no features")
	}
	idx := make(map[string]int, len(next))
	for i, f := range next {
		if f == "" {
			return nil, fmt.Errorf("core: model has an empty feature name at index %d", i)
		}
		if j, dup := idx[f]; dup {
			return nil, fmt.Errorf("core: model declares feature %q twice (indexes %d and %d)", f, j, i)
		}
		idx[f] = i
	}
	if serving == nil {
		return idx, nil
	}
	if len(serving) != len(next) {
		return nil, fmt.Errorf("%w: serving %d features, incoming %d",
			ErrSchemaMismatch, len(serving), len(next))
	}
	var missing []string
	for _, f := range serving {
		if _, ok := idx[f]; !ok {
			missing = append(missing, f)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%w: incoming model lacks %v", ErrSchemaMismatch, missing)
	}
	return idx, nil
}

// Swap validates next and atomically installs it as the serving model,
// returning the new generation. On any error the previous model keeps
// serving untouched and its generation is returned. In-flight requests
// holding the old view finish on it; new requests observe the new view.
func (m *Manager[M]) Swap(next M) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var zero M
	if next == zero {
		m.swapErr.Inc()
		return m.gen, errors.New("core: cannot swap in a nil model")
	}
	var serving []string
	if cur := m.cur.Load(); cur != nil {
		serving = cur.Model.FeatureNames()
	}
	idx, err := validateSwap(next.FeatureNames(), serving)
	if err != nil {
		if errors.Is(err, ErrSchemaMismatch) {
			m.swapRej.Inc()
		} else {
			m.swapErr.Inc()
		}
		return m.gen, err
	}
	m.gen++
	m.cur.Store(&View[M]{Model: next, Generation: m.gen, index: idx})
	m.generation.Set(float64(m.gen))
	m.swapOK.Inc()
	return m.gen, nil
}

// SetPath sets the default model file for ReloadFromFile("").
func (m *Manager[M]) SetPath(path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.path = path
}

// Path returns the default model file, if any.
func (m *Manager[M]) Path() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.path
}

// ReloadFromFile loads a saved model (as written by Save) from path or,
// when path is empty, from the configured default, and swaps it in. On
// success the path becomes the new default, so a later SIGHUP or bare
// reload repeats it.
func (m *Manager[M]) ReloadFromFile(path string) (uint64, error) {
	if path == "" {
		path = m.Path()
	}
	if m.load == nil {
		return m.Generation(), errors.New("core: this model family has no serialized form")
	}
	if path == "" {
		return m.Generation(), errors.New("core: no model path configured for reload")
	}
	f, err := os.Open(path)
	if err != nil {
		m.swapErr.Inc()
		return m.Generation(), err
	}
	defer f.Close()
	next, err := m.load(f)
	if err != nil {
		m.swapErr.Inc()
		return m.Generation(), err
	}
	gen, err := m.Swap(next)
	if err == nil {
		m.SetPath(path)
	}
	return gen, err
}
