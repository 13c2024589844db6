package flight

import (
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The serving objectives the burn-rate engine evaluates.
const (
	// sloRoutePrefix selects which events count toward the objectives:
	// the governed serving path.
	sloRoutePrefix = "/api/classify"
	// availabilityTarget is the fraction of governed requests that must
	// not fail server-side (status < 500).
	availabilityTarget = 0.999
	// latencyTarget is the fraction of successful (200) requests that
	// must finish within latencyThreshold.
	latencyTarget    = 0.99
	latencyThreshold = 500 * time.Millisecond
	// burnThreshold triggers a diagnostic bundle when the shortest
	// window's burn rate reaches it (a burn rate of 1.0 spends the error
	// budget exactly at the sustainable pace; 10 means the budget is
	// burning 10x too fast).
	burnThreshold = 10
	// minWindowTotal is how many requests the shortest window must hold
	// before a burn can trigger capture, so a single early failure
	// against a near-empty window does not fire profiles.
	minWindowTotal = 20
)

// sloWindows are the burn-rate evaluation windows, shortest first. The
// largest bounds the engine's memory (one small bucket per second).
var sloWindows = [...]time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute, time.Hour}

// sloBucket accumulates one second of governed traffic.
type sloBucket struct {
	total   uint64 // governed requests
	bad     uint64 // status >= 500 (availability violations)
	latMeas uint64 // 200s (latency objective denominator)
	latSlow uint64 // 200s over the latency threshold
}

func (b *sloBucket) add(o *sloBucket) {
	b.total += o.total
	b.bad += o.bad
	b.latMeas += o.latMeas
	b.latSlow += o.latSlow
}

// slo is the in-process multi-window burn-rate engine: a ring of
// one-second buckets sized to the largest window, summed on demand.
type slo struct {
	clock  func() time.Time
	onBurn func(reason string) // set by the recorder when bundles are on

	mu      sync.Mutex
	buckets []sloBucket
	lastSec int64     // absolute unix second the cursor is at (-1 before first event)
	totals  sloBucket // whole-run accumulator
}

func newSLO(clock func() time.Time) *slo {
	n := sloWindows[len(sloWindows)-1] / time.Second
	return &slo{clock: clock, buckets: make([]sloBucket, n), lastSec: -1}
}

// advance zeroes buckets between the cursor and sec. Caller holds s.mu.
func (s *slo) advance(sec int64) {
	if s.lastSec < 0 {
		s.lastSec = sec
		return
	}
	gap := sec - s.lastSec
	if gap <= 0 {
		return
	}
	if gap > int64(len(s.buckets)) {
		gap = int64(len(s.buckets))
	}
	for i := int64(1); i <= gap; i++ {
		s.buckets[(s.lastSec+i)%int64(len(s.buckets))] = sloBucket{}
	}
	s.lastSec = sec
}

// record folds one finalized event into the current second, then checks
// the shortest window for a burn worth capturing.
func (s *slo) record(ev *Event) {
	if !strings.HasPrefix(ev.Path, sloRoutePrefix) {
		return
	}
	bad := ev.Status >= 500
	slow := ev.Status == 200 && ev.DurationNS > int64(latencyThreshold)

	s.mu.Lock()
	sec := s.clock().Unix()
	s.advance(sec)
	b := &s.buckets[sec%int64(len(s.buckets))]
	b.total++
	s.totals.total++
	if bad {
		b.bad++
		s.totals.bad++
	}
	if ev.Status == 200 {
		b.latMeas++
		s.totals.latMeas++
		if slow {
			b.latSlow++
			s.totals.latSlow++
		}
	}
	var burnReason string
	// Only a budget-spending event can push a burn rate over the
	// threshold, so the window sum runs on those alone.
	if (bad || slow) && s.onBurn != nil {
		sum := s.windowSum(sloWindows[0], sec)
		if sum.total >= minWindowTotal {
			if bad && burnRate(sum.bad, sum.total, availabilityTarget) >= burnThreshold {
				burnReason = "slo_burn_availability"
			} else if slow && burnRate(sum.latSlow, sum.latMeas, latencyTarget) >= burnThreshold {
				burnReason = "slo_burn_latency"
			}
		}
	}
	s.mu.Unlock()

	if burnReason != "" {
		s.onBurn(burnReason) // async + rate-limited by the bundler
	}
}

// windowSum adds the buckets covering the last w (at most the largest
// window) ending at sec. Caller holds s.mu.
func (s *slo) windowSum(w time.Duration, sec int64) sloBucket {
	n := int64(w / time.Second)
	var sum sloBucket
	for i := int64(0); i < n; i++ {
		at := sec - i
		if at < 0 || (s.lastSec >= 0 && at <= s.lastSec-int64(len(s.buckets))) {
			break
		}
		sum.add(&s.buckets[at%int64(len(s.buckets))])
	}
	return sum
}

// burnRate is (bad/total) / (1-target): 1.0 spends the error budget at
// exactly the sustainable pace. Zero traffic burns nothing.
func burnRate(bad, total uint64, target float64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - target)
}

// WindowBurn is one evaluation window's burn state.
type WindowBurn struct {
	Window   string  `json:"window"`
	Total    uint64  `json:"total"`
	Bad      uint64  `json:"bad"`
	BadRate  float64 `json:"badRate"`
	BurnRate float64 `json:"burnRate"`
}

// ObjectiveStatus reports one objective across every window plus the
// whole run.
type ObjectiveStatus struct {
	Target    float64      `json:"target"`
	Threshold string       `json:"threshold,omitempty"` // latency objective only
	Windows   []WindowBurn `json:"windows"`
	RunTotal  uint64       `json:"runTotal"`
	RunBad    uint64       `json:"runBad"`
	// RunBudgetLeft is the fraction of the run's error budget still
	// unspent (negative once the objective is violated outright).
	RunBudgetLeft float64 `json:"runBudgetLeft"`
}

// SLOStatus is the /debug/slo payload.
type SLOStatus struct {
	Availability *ObjectiveStatus `json:"availability"`
	Latency      *ObjectiveStatus `json:"latency"`
}

// status evaluates both objectives over every window now.
func (s *slo) status() *SLOStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	sec := s.clock().Unix()
	s.advance(sec)
	build := func(target float64, bad func(*sloBucket) (uint64, uint64)) *ObjectiveStatus {
		o := &ObjectiveStatus{Target: target}
		for _, w := range sloWindows {
			sum := s.windowSum(w, sec)
			b, t := bad(&sum)
			o.Windows = append(o.Windows, WindowBurn{
				Window:   w.String(),
				Total:    t,
				Bad:      b,
				BadRate:  safeDiv(b, t),
				BurnRate: burnRate(b, t, target),
			})
		}
		b, t := bad(&s.totals)
		o.RunTotal, o.RunBad = t, b
		o.RunBudgetLeft = 1 - burnRate(b, t, target)
		return o
	}
	out := &SLOStatus{
		Availability: build(availabilityTarget,
			func(b *sloBucket) (uint64, uint64) { return b.bad, b.total }),
		Latency: build(latencyTarget,
			func(b *sloBucket) (uint64, uint64) { return b.latSlow, b.latMeas }),
	}
	out.Latency.Threshold = latencyThreshold.String()
	return out
}

func safeDiv(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// export publishes burn-rate gauges (slo_burn_rate{objective,window})
// and objective targets into reg.
func (s *slo) export(reg *obs.Registry) {
	reg.Help("slo_target", "Configured SLO target per objective.")
	reg.Help("slo_budget_left", "Fraction of the run's error budget still unspent, per objective.")
	reg.Help("slo_burn_rate", "Error-budget burn rate per objective and window (1.0 = budget spent exactly at the sustainable pace).")
	st := s.status()
	set := func(objective string, o *ObjectiveStatus) {
		reg.Gauge("slo_target", "objective", objective).Set(o.Target)
		reg.Gauge("slo_budget_left", "objective", objective).Set(o.RunBudgetLeft)
		for _, w := range o.Windows {
			reg.Gauge("slo_burn_rate", "objective", objective, "window", w.Window).Set(w.BurnRate)
		}
	}
	set("availability", st.Availability)
	set("latency", st.Latency)
}
