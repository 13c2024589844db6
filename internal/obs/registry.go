package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. A nil *Gauge is a
// no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (negative deltas decrement).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric. Buckets are inclusive
// upper bounds in ascending order; observations above the last bound land
// in the implicit +Inf bucket. A nil *Histogram is a no-op.
type Histogram struct {
	upper   []float64
	buckets []atomic.Uint64 // len(upper)+1; last is +Inf, non-cumulative
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// DefBuckets mirrors the Prometheus client defaults, a latency-oriented
// spread from 5ms to 10s.
func DefBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// ObserveDuration records the seconds elapsed since start.
func (h *Histogram) ObserveDuration(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (family, label-set) time series.
type series struct {
	labels  string // rendered `k="v",k2="v2"` (sorted by key), "" when unlabeled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups the series of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	series  map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; methods on
// a nil *Registry return nil metrics (whose methods are no-ops).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Help sets the HELP text of a metric family (created lazily if needed the
// first time a metric of that name is registered).
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = text
		return
	}
	r.families[name] = &family{name: name, help: text, series: map[string]*series{}}
}

// renderLabels canonicalizes k,v pairs into a sorted label string.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, (len(pairs)+1)/2)
	for i := 0; i < len(pairs); i += 2 {
		// A dangling key (odd pair count) renders with a sentinel value,
		// mirroring the logger, so the call-site bug is visible instead of
		// silently aliasing another series.
		v := "(MISSING)"
		if i+1 < len(pairs) {
			v = pairs[i+1]
		}
		kvs = append(kvs, kv{pairs[i], v})
	}
	sort.Slice(kvs, func(a, b int) bool { return kvs[a].k < kvs[b].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String()
}

// lookup returns (creating as needed) the series for name + labels. The
// kind and buckets of a family are fixed by its first registration.
func (r *Registry) lookup(name string, kind metricKind, buckets []float64, labelPairs []string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: map[string]*series{}}
		if kind == kindHistogram {
			f.buckets = append([]float64(nil), buckets...)
		}
		r.families[name] = f
	} else if f.kind != kind {
		if len(f.series) > 0 {
			// Returning the existing series would hand the caller a nil
			// metric that silently drops every observation; fail loudly.
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested as %s", name, f.kind, kind))
		}
		// Family pre-created by Help: adopt the first registered kind.
		f.kind = kind
		if kind == kindHistogram {
			f.buckets = append([]float64(nil), buckets...)
		}
	}
	key := renderLabels(labelPairs)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		switch f.kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			h := &Histogram{upper: f.buckets}
			h.buckets = make([]atomic.Uint64, len(f.buckets)+1)
			s.hist = h
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for name with optional k,v label pairs,
// creating it on first use.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, nil, labelPairs).counter
}

// Gauge returns the gauge for name with optional k,v label pairs.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, nil, labelPairs).gauge
}

// Histogram returns the histogram for name with optional k,v label pairs.
// The bucket layout is fixed by the first registration of the family
// (nil buckets mean DefBuckets).
func (r *Registry) Histogram(name string, buckets []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets()
	}
	return r.lookup(name, kindHistogram, buckets, labelPairs).hist
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel appends one k="v" pair to a rendered label string.
func withLabel(labels, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// familyView is an immutable copy of one family's identity plus its series
// pointers, taken under r.mu. Concurrent lookups insert into the live
// family.series maps, so renderers must never touch those maps (or the
// help/kind fields) after the lock is released; the per-series atomics are
// safe to read unlocked.
type familyView struct {
	name   string
	help   string
	kind   metricKind
	series []*series // sorted by label string
}

// view snapshots every family under r.mu, families sorted by name.
func (r *Registry) view() []familyView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]familyView, 0, len(r.families))
	for _, f := range r.families {
		fv := familyView{name: f.name, help: f.help, kind: f.kind,
			series: make([]*series, 0, len(f.series))}
		for _, s := range f.series {
			fv.series = append(fv.series, s)
		}
		sort.Slice(fv.series, func(i, j int) bool { return fv.series[i].labels < fv.series[j].labels })
		out = append(out, fv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series in sorted order so the
// output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.view() {
		if len(f.series) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, s.labels, strconv.FormatUint(s.counter.Value(), 10))
			case kindGauge:
				writeSample(&b, f.name, s.labels, formatFloat(s.gauge.Value()))
			case kindHistogram:
				cum := uint64(0)
				for i, bound := range s.hist.upper {
					cum += s.hist.buckets[i].Load()
					writeSample(&b, f.name+"_bucket", withLabel(s.labels, "le", formatFloat(bound)), strconv.FormatUint(cum, 10))
				}
				cum += s.hist.buckets[len(s.hist.upper)].Load()
				writeSample(&b, f.name+"_bucket", withLabel(s.labels, "le", "+Inf"), strconv.FormatUint(cum, 10))
				writeSample(&b, f.name+"_sum", s.labels, formatFloat(s.hist.Sum()))
				writeSample(&b, f.name+"_count", s.labels, strconv.FormatUint(s.hist.Count(), 10))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// SeriesSnapshot is one series in a JSON-able registry dump.
type SeriesSnapshot struct {
	Name  string  `json:"name"` // family name plus rendered labels
	Type  string  `json:"type"`
	Value float64 `json:"value,omitempty"` // counter / gauge
	Count uint64  `json:"count,omitempty"` // histogram
	Sum   float64 `json:"sum,omitempty"`   // histogram
	Mean  float64 `json:"mean,omitempty"`  // histogram
}

// Snapshot returns every series sorted by name, for embedding into JSON
// reports (e.g. the benchmark's per-layer counters).
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	var out []SeriesSnapshot
	for _, f := range r.view() {
		for _, s := range f.series {
			name := f.name
			if s.labels != "" {
				name += "{" + s.labels + "}"
			}
			snap := SeriesSnapshot{Name: name, Type: f.kind.String()}
			switch f.kind {
			case kindCounter:
				snap.Value = float64(s.counter.Value())
			case kindGauge:
				snap.Value = s.gauge.Value()
			case kindHistogram:
				snap.Count = s.hist.Count()
				snap.Sum = s.hist.Sum()
				if snap.Count > 0 {
					snap.Mean = snap.Sum / float64(snap.Count)
				}
			}
			out = append(out, snap)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
