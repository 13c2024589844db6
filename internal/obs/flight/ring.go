package flight

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// KeepReason values: why tail sampling kept an event in the ring.
const (
	// KeepError marks events tail sampling must never drop: every
	// non-2xx disposition and every panic.
	KeepError = "error"
	// KeepSlow marks healthy events kept because their latency ranks in
	// the rolling top-K.
	KeepSlow = "slow"
	// KeepSampled marks healthy events kept by the 1-in-N counter.
	KeepSampled = "sampled"
)

// Tail-sampling policy for healthy events.
const (
	// topK is the size of the rolling latency top-K: a healthy request
	// slower than the K-th slowest seen so far is always kept.
	topK = 64
	// sampleEvery keeps 1 in N healthy requests that did not rank in the
	// latency top-K. Sampling is counter-based, never random, so arming
	// the recorder cannot perturb any deterministic RNG stream.
	sampleEvery = 16
)

// Config tunes a Recorder. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// Capacity is the total ring size in events. Error-class events
	// (429/504/5xx/panics) get half the slots and healthy (slow +
	// sampled) events the other half, so an OK flood can never evict an
	// error and an error storm can never evict the latency top-K.
	Capacity int
	// Bundle configures self-capturing diagnostics; the zero value
	// disables them.
	Bundle BundleConfig
	// Clock is injectable for tests; nil means time.Now.
	Clock func() time.Time
}

// DefaultConfig is the always-on serving default: 2048 events, bundles
// disabled (no Dir).
func DefaultConfig() Config {
	return Config{Capacity: 2048}
}

// ring is a fixed-capacity overwrite-oldest event buffer.
type ring struct {
	buf  []Event
	next int // next write position
	n    int // live events (<= len(buf))
}

// push appends ev, reporting whether a live event was overwritten.
func (r *ring) push(ev Event) (evicted bool) {
	if len(r.buf) == 0 {
		return false
	}
	evicted = r.n == len(r.buf)
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if !evicted {
		r.n++
	}
	return evicted
}

// each visits every live event, oldest first.
func (r *ring) each(fn func(*Event)) {
	start := r.next - r.n
	for i := 0; i < r.n; i++ {
		fn(&r.buf[(start+i+len(r.buf))%len(r.buf)])
	}
}

// Stats is the recorder's reconciliation ledger. Every request the
// middleware finalizes lands in exactly one disposition:
//
//	Observed == Kept + SampledOut, and Kept == Live + Evicted
//
// so ring-event counts can be reconciled exactly against
// http_requests_total (the storm test and the soak harness do).
type Stats struct {
	Observed   uint64 `json:"observed"`   // events offered to the recorder
	Kept       uint64 `json:"kept"`       // entered the ring (error | slow | sampled)
	SampledOut uint64 `json:"sampledOut"` // healthy events the sampler dropped
	Evicted    uint64 `json:"evicted"`    // kept events later overwritten
	Live       int    `json:"live"`       // kept events currently in the ring
	// ShadowRows / ShadowAgree sum the lifecycle loop's per-request
	// shadow tallies across every observed event, independent of
	// sampling -- the recorder-side legs of the shadow reconciliation
	// (ShadowRows == lifecycle ledger Scored).
	ShadowRows  uint64 `json:"shadowRows"`
	ShadowAgree uint64 `json:"shadowAgree"`
	// ByRoute counts observed events per bounded route label and status
	// code (string-keyed for JSON), independent of sampling -- the
	// denominator the soak reconciliation joins client counts against.
	ByRoute map[string]map[string]uint64 `json:"byRoute"`
}

// Check asserts the ledger's conservation identity.
func (s Stats) Check() error {
	if s.Observed != s.Kept+s.SampledOut {
		return fmt.Errorf("flight: ledger unbalanced: observed %d != kept %d + sampledOut %d",
			s.Observed, s.Kept, s.SampledOut)
	}
	if s.Kept != uint64(s.Live)+s.Evicted {
		return fmt.Errorf("flight: ledger unbalanced: kept %d != live %d + evicted %d",
			s.Kept, s.Live, s.Evicted)
	}
	return nil
}

// Recorder is the serving path's flight recorder: a fixed-size,
// tail-sampled wide-event ring with an SLO burn-rate engine and
// optional self-capturing diagnostic bundles on top. All methods are
// safe for concurrent use and nil-safe, so an unarmed serving path pays
// one nil check per request.
type Recorder struct {
	mu          sync.Mutex
	seq         uint64
	errs        ring
	oks         ring
	slowest     []int64 // min-heap of kept slow durations (ns)
	okSeen      uint64
	observed    uint64
	kept        uint64
	sampledOut  uint64
	evicted     uint64
	shadowRows  uint64
	shadowAgree uint64
	byRoute     map[string]map[int]uint64

	slo     *slo
	bundler *bundler
}

// NewRecorder builds a recorder from cfg, normalizing degenerate sizes
// (capacity < 2 becomes 2 so both classes keep at least one slot).
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity < 2 {
		cfg.Capacity = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	errCap := (cfg.Capacity + 1) / 2
	r := &Recorder{
		errs:    ring{buf: make([]Event, errCap)},
		oks:     ring{buf: make([]Event, cfg.Capacity-errCap)},
		slowest: make([]int64, 0, topK),
		byRoute: map[string]map[int]uint64{},
		slo:     newSLO(cfg.Clock),
	}
	r.bundler = newBundler(cfg.Bundle, r, cfg.Clock)
	if r.bundler != nil {
		r.slo.onBurn = r.TriggerBundle
	}
	return r
}

// slowKeep reports whether a healthy event with the given duration
// ranks in the rolling latency top-K, updating the heap when it does.
// Caller holds r.mu.
func (r *Recorder) slowKeep(ns int64) bool {
	if len(r.slowest) < topK {
		r.slowest = append(r.slowest, ns)
		siftUp(r.slowest, len(r.slowest)-1)
		return true
	}
	if ns <= r.slowest[0] {
		return false
	}
	r.slowest[0] = ns
	siftDown(r.slowest, 0)
	return true
}

// siftUp / siftDown maintain a min-heap of int64 (smallest at index 0).
func siftUp(h []int64, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []int64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Record lands a finalized request event in the ring, applying tail
// sampling: error-class events are always kept, the rolling latency
// top-K is always kept, and remaining healthy traffic is 1-in-N
// counter-sampled. Call exactly once per request, after Finalize.
func (r *Recorder) Record(a *Active) {
	if r == nil || a == nil {
		return
	}
	ev := a.Event
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.observed++
	r.shadowRows += uint64(ev.ShadowRows)
	r.shadowAgree += uint64(ev.ShadowAgree)
	byStatus := r.byRoute[ev.Path]
	if byStatus == nil {
		byStatus = map[int]uint64{}
		r.byRoute[ev.Path] = byStatus
	}
	byStatus[ev.Status]++
	switch {
	case ev.isError():
		ev.KeepReason = KeepError
		r.kept++
		if r.errs.push(ev) {
			r.evicted++
		}
	case r.slowKeep(ev.DurationNS):
		ev.KeepReason = KeepSlow
		r.kept++
		if r.oks.push(ev) {
			r.evicted++
		}
	default:
		r.okSeen++
		if r.okSeen%sampleEvery == 0 {
			ev.KeepReason = KeepSampled
			r.kept++
			if r.oks.push(ev) {
				r.evicted++
			}
		} else {
			r.sampledOut++
		}
	}
	r.mu.Unlock()
	r.slo.record(&ev)
}

// Stats returns the reconciliation ledger.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Observed:    r.observed,
		Kept:        r.kept,
		SampledOut:  r.sampledOut,
		Evicted:     r.evicted,
		Live:        r.errs.n + r.oks.n,
		ShadowRows:  r.shadowRows,
		ShadowAgree: r.shadowAgree,
		ByRoute:     make(map[string]map[string]uint64, len(r.byRoute)),
	}
	for route, byStatus := range r.byRoute {
		m := make(map[string]uint64, len(byStatus))
		for status, n := range byStatus {
			m[strconv.Itoa(status)] = n
		}
		st.ByRoute[route] = m
	}
	return st
}

// Filter selects events from the ring. Zero fields match everything.
type Filter struct {
	// ID matches the exact request ID ("" = any).
	ID string
	// Status matches the exact response code (0 = any).
	Status int
	// Route is a path-label prefix ("" = any); "/api/classify" matches
	// both the single and batch endpoints.
	Route string
	// Outcome matches the derived disposition ("" = any).
	Outcome string
	// MinDuration drops events faster than this.
	MinDuration time.Duration
	// Since drops events that started before this instant.
	Since time.Time
	// Limit bounds the returned slice to the most recent N matches:
	// < 0 returns all, 0 returns none (count-only queries).
	Limit int
}

func (f *Filter) match(ev *Event) bool {
	if f.ID != "" && ev.ID != f.ID {
		return false
	}
	if f.Status != 0 && ev.Status != f.Status {
		return false
	}
	if f.Route != "" && !strings.HasPrefix(ev.Path, f.Route) {
		return false
	}
	if f.Outcome != "" && ev.Outcome != f.Outcome {
		return false
	}
	if f.MinDuration > 0 && ev.DurationNS < int64(f.MinDuration) {
		return false
	}
	if !f.Since.IsZero() && ev.Time.Before(f.Since) {
		return false
	}
	return true
}

// Query returns the live events matching f in insertion order (Seq
// ascending, trimmed to the most recent Limit) plus the total match
// count before trimming.
func (r *Recorder) Query(f Filter) (events []Event, matched int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	collect := func(ev *Event) {
		if f.match(ev) {
			events = append(events, *ev)
		}
	}
	r.errs.each(collect)
	r.oks.each(collect)
	r.mu.Unlock()
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	matched = len(events)
	if f.Limit == 0 {
		return nil, matched
	}
	if f.Limit > 0 && len(events) > f.Limit {
		events = events[len(events)-f.Limit:]
	}
	return events, matched
}

// Snapshot returns every live event in insertion order (for bundles).
func (r *Recorder) Snapshot() []Event {
	ev, _ := r.Query(Filter{Limit: -1})
	return ev
}

// SLOStatus reports the burn-rate engine's current view of both
// objectives, or nil on a nil recorder.
func (r *Recorder) SLOStatus() *SLOStatus {
	if r == nil {
		return nil
	}
	return r.slo.status()
}

// Export publishes the recorder's ledger and SLO burn rates as gauges
// into reg; the serving /metrics handler calls it on every scrape so
// the exposition always carries fresh values.
func (r *Recorder) Export(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.Help("flight_events", "Flight-recorder event ledger by disposition (observed = kept + sampled_out; kept = live + evicted).")
	reg.Help("flight_live_events", "Wide events currently held in the flight-recorder ring.")
	reg.Help("flight_shadow_rows", "Shadow-scored rows recorded on wide events, by disposition (scored, agree); reconciles exactly with lifecycle_shadow_rows_total.")
	st := r.Stats()
	reg.Gauge("flight_events", "disposition", "observed").Set(float64(st.Observed))
	reg.Gauge("flight_events", "disposition", "kept").Set(float64(st.Kept))
	reg.Gauge("flight_events", "disposition", "sampled_out").Set(float64(st.SampledOut))
	reg.Gauge("flight_events", "disposition", "evicted").Set(float64(st.Evicted))
	reg.Gauge("flight_live_events").Set(float64(st.Live))
	reg.Gauge("flight_shadow_rows", "disposition", "scored").Set(float64(st.ShadowRows))
	reg.Gauge("flight_shadow_rows", "disposition", "agree").Set(float64(st.ShadowAgree))
	r.slo.export(reg)
	r.bundler.export(reg)
}
