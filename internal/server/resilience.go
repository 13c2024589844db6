package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs/flight"
	"repro/internal/resilience"
)

// Fault-injection site names the serving path consults when a
// resilience.Faults registry is wired in (the -faults flag, or a test
// hook). Default builds construct no registry, so these sites cost one
// nil check.
const (
	// FaultReload fires inside the guarded model reload, before the
	// manager touches the file: error faults fail the reload (driving
	// the breaker), latency faults wedge it.
	FaultReload = "reload"
	// FaultClassifyRow fires once per classified row, single and batch
	// alike: latency faults slow inference (driving deadlines), error
	// faults fail the row, panic faults prove panic isolation.
	FaultClassifyRow = "classify.row"
	// FaultDiscoverAssign fires once per discovery assignment, after
	// request validation and before scoring — same fault semantics as
	// classify.row for the /api/discover/assign path.
	FaultDiscoverAssign = "discover.assign"
	// FaultDiscoverFit fires inside the guarded discovery refit before
	// the warehouse is read: error faults fail the refit (driving the
	// shared control-plane breaker), latency faults wedge it.
	FaultDiscoverFit = "discover.fit"
)

// ResilienceConfig tunes the serving path's overload behaviour. The
// zero value disables everything, preserving the unguarded behaviour.
type ResilienceConfig struct {
	// RequestTimeout is the per-request deadline applied to governed
	// endpoints via context; a request that exceeds it answers 504 and
	// counts in http_timeouts_total. 0 disables deadlines.
	RequestTimeout time.Duration
	// MaxConcurrent bounds how many governed requests execute at once;
	// <= 0 disables admission control.
	MaxConcurrent int
	// MaxQueue bounds how many governed requests may wait for a slot
	// beyond MaxConcurrent; arrivals past that are shed with 429.
	MaxQueue int
}

// retryAfter is the hint returned in the Retry-After header of shed
// (429) responses.
const retryAfter = time.Second

// WithResilience enables per-request deadlines and admission control on
// the model-serving endpoints (classification and discovery assignment
// -- the expensive paths; warehouse reads are microsecond map lookups
// and stay ungoverned).
func WithResilience(cfg ResilienceConfig) Option {
	return func(s *Server) { s.resilience = cfg }
}

// WithFaults arms deterministic fault injection at the server's named
// sites. Arm sites before the server starts taking traffic; the
// registry is read-only afterwards.
func WithFaults(f *resilience.Faults) Option {
	return func(s *Server) { s.faults = f }
}

// WithReloadBreaker overrides the circuit breaker configuration guarding
// model reloads (admin endpoint and SIGHUP alike). The server installs a
// default breaker (threshold 5, open 30s) even without this option;
// OnStateChange and Now are reserved for the server's own gauge wiring
// and are overwritten.
func WithReloadBreaker(cfg resilience.BreakerConfig) Option {
	return func(s *Server) { s.breakerCfg = cfg }
}

// initResilience finishes resilience wiring after options ran: builds
// the admission limiter and the reload breaker, and points the breaker's
// transitions at the model_breaker_state gauge.
func (s *Server) initResilience() {
	s.limiter = resilience.NewLimiter(resilience.LimiterConfig{
		MaxConcurrent: s.resilience.MaxConcurrent,
		MaxQueue:      s.resilience.MaxQueue,
	})
	gauge := s.metrics.Gauge("model_breaker_state")
	s.breakerCfg.OnStateChange = func(st resilience.BreakerState) {
		gauge.Set(float64(st))
		if st == resilience.BreakerOpen {
			// A tripped breaker is exactly the moment diagnostics are
			// worth their cost: snapshot the ring and runtime state.
			// TriggerBundle is asynchronous (and nil-safe), so the
			// breaker's own lock is never held across a capture.
			s.flight.TriggerBundle("breaker_open")
		}
	}
	s.breakerCfg.Now = nil // the breaker defaults to the real clock
	s.breaker = resilience.NewBreaker(s.breakerCfg)
}

// retryAfterSeconds renders a Retry-After header value, always >= 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// shed answers a load-shed request: 429, a Retry-After hint, and the
// http_shed_total{reason} counter. Shedding is immediate -- the contract
// is "never hangs" -- so clients can back off instead of piling on.
func (s *Server) shed(w http.ResponseWriter, reason string) {
	s.metrics.Counter("http_shed_total", "reason", reason).Inc()
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	s.writeError(w, http.StatusTooManyRequests,
		"server overloaded, request shed (%s); retry after backoff", reason)
}

// timedOut answers a deadline-exceeded request: 504 plus the
// http_timeouts_total{stage} counter. stage is "queue" (deadline expired
// while waiting for admission) or "handler" (expired mid-inference).
// The stage also lands on the request's wide event, so /debug/requests
// can split queue-side from handler-side overruns.
func (s *Server) timedOut(w http.ResponseWriter, r *http.Request, stage string) {
	fe := flight.From(r.Context())
	fe.SetTimeoutStage(stage)
	fe.SetErr("request deadline exceeded (" + stage + " stage)")
	s.metrics.Counter("http_timeouts_total", "stage", stage).Inc()
	s.writeError(w, http.StatusGatewayTimeout,
		"request deadline exceeded (%s stage)", stage)
}

// govern applies the resilience layer around a governed request: attach
// the deadline, pass admission control, run next with the deadline-bound
// request, release. When admission sheds or the deadline expires in the
// queue, govern answers the request itself and next never runs. The time
// a request spends waiting for an admission slot is stamped onto its
// wide event, so handler time and queue time stay separable per request.
func (s *Server) govern(w http.ResponseWriter, r *http.Request, next func(*http.Request)) {
	if s.resilience.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.resilience.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	enqueued := time.Now()
	release, err := s.limiter.Acquire(r.Context())
	flight.From(r.Context()).SetQueueWait(time.Since(enqueued))
	switch {
	case errors.Is(err, resilience.ErrShed):
		s.shed(w, "queue_full")
		return
	case err != nil:
		// The deadline expired (or the client vanished) while the
		// request sat in the admission queue: it never executed, so the
		// all-or-nothing contract holds trivially.
		s.timedOut(w, r, "queue")
		return
	}
	defer release()
	next(r)
}

// controlGuard is the shared control-plane gate: model reloads,
// discovery refits and lifecycle retrains/promotions all pass through
// the same breaker, so repeated failures from any control-plane source
// fail fast together. While open, op never runs and the error is
// resilience.ErrBreakerOpen.
func (s *Server) controlGuard(op func() error) error {
	if err := s.breaker.Allow(); err != nil {
		s.metrics.Counter("model_breaker_rejections_total").Inc()
		return err
	}
	err := op()
	s.breaker.Record(err)
	return err
}

// controlError maps a failed control-plane operation onto its response:
// breaker-open fails fast with a Retry-After hint (503), a refused
// precondition -- an incompatible schema, or a lifecycle step with
// nothing to act on -- is a conflict (409), and anything else answers
// with the operation's fallback status.
func (s *Server) controlError(w http.ResponseWriter, op string, fallback int, err error) {
	switch {
	case errors.Is(err, resilience.ErrBreakerOpen):
		w.Header().Set("Retry-After", retryAfterSeconds(s.breaker.RetryAfter()))
		s.writeError(w, http.StatusServiceUnavailable,
			"%s: control-plane breaker open after repeated failures: %v", op, err)
	case errors.Is(err, core.ErrSchemaMismatch),
		errors.Is(err, lifecycle.ErrNoTrainer),
		errors.Is(err, lifecycle.ErrNoChallenger),
		errors.Is(err, lifecycle.ErrNoHistory):
		s.writeError(w, http.StatusConflict, "%s rejected: %v", op, err)
	default:
		s.writeError(w, fallback, "%s failed: %v", op, err)
	}
}

// ReloadModel swaps the serving model from path (empty = the remembered
// default) through the control-plane breaker and the FaultReload
// injection site. Both the admin endpoint and SIGHUP use it, so repeated
// failures from either source trip the same breaker; while open,
// attempts fail fast with resilience.ErrBreakerOpen and never touch the
// manager. On failure the still-serving generation is returned.
func (s *Server) ReloadModel(path string) (uint64, error) {
	gen := s.models.Generation()
	err := s.controlGuard(func() error {
		if err := s.faults.Inject(FaultReload); err != nil {
			return err
		}
		var err error
		gen, err = s.models.ReloadFromFile(path)
		return err
	})
	return gen, err
}
