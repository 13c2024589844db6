package server

import (
	"net/http"

	"repro/internal/lifecycle"
)

// lifecycleSetup carries the WithLifecycle arguments until New has
// built the pieces the loop plugs into (manager, metrics, breaker,
// fault registry).
type lifecycleSetup struct {
	cfg  lifecycle.Config
	opts lifecycle.Options
}

// WithLifecycle arms the closed-loop model lifecycle: drift monitoring
// over live classify traffic, shadow retraining, and significance-gated
// champion–challenger promotion. Options left nil are wired to the
// server's own pieces: Manager to the serving model manager, Registry
// to /metrics, Faults to the server's registry, and Guard to the shared
// control-plane breaker (the one model reloads trip). The caller
// normally supplies Baseline and Trainer; a loop without a trainer
// only monitors drift.
func WithLifecycle(cfg lifecycle.Config, opts lifecycle.Options) Option {
	return func(s *Server) { s.lifecyclePending = &lifecycleSetup{cfg: cfg, opts: opts} }
}

// initLifecycle finishes the loop's wiring once the server's manager,
// metrics, breaker and faults exist. Called from New, after
// initResilience and manager construction.
func (s *Server) initLifecycle() {
	p := s.lifecyclePending
	if p == nil {
		return
	}
	o := p.opts
	if o.Manager == nil {
		o.Manager = s.models
	}
	if o.Registry == nil {
		o.Registry = s.metrics
	}
	if o.Log == nil {
		o.Log = s.log
	}
	if o.Faults == nil {
		o.Faults = s.faults
	}
	if o.Guard == nil {
		o.Guard = s.controlGuard
	}
	if o.Notify == nil {
		// A buffered poke channel: the host process (cmd/supremm-serve)
		// drains it and calls Step, keeping loop actions off the
		// serving goroutines. Coalescing to one pending poke is fine:
		// Step re-reads the state.
		s.lifecycleCh = make(chan struct{}, 1)
		ch := s.lifecycleCh
		o.Notify = func() {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}
	loop, err := lifecycle.New(p.cfg, o)
	if err != nil {
		s.log.Error("lifecycle loop rejected", "err", err)
		return
	}
	s.lifecycle = loop
}

// Lifecycle exposes the loop (nil when WithLifecycle was not used); the
// host process uses it for signal-driven retrains and Step-draining.
func (s *Server) Lifecycle() *lifecycle.Loop { return s.lifecycle }

// LifecycleNotify is the loop's poke channel: a receive means the loop
// wants a Step (drift fired, or the shadow window filled). Nil when the
// lifecycle is disabled or the caller supplied its own Notify.
func (s *Server) LifecycleNotify() <-chan struct{} { return s.lifecycleCh }

// lifecycleOp serves one lifecycle endpoint: 503 when the loop is not
// armed, otherwise run the control-plane step (nil for the read-only
// status route) and answer with the loop's full state snapshot, or the
// step's failure through controlError. retrain forces a challenger
// retrain and leaves the loop shadowing it; promote runs the promotion
// gate now (a gate rejection is a 200 whose reason is in the status);
// rollback swaps the pre-promotion champion back in.
func (s *Server) lifecycleOp(name string, step func(*lifecycle.Loop) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		l := s.lifecycle
		if l == nil {
			s.writeError(w, http.StatusServiceUnavailable, "lifecycle loop not enabled")
			return
		}
		if step != nil {
			if err := step(l); err != nil {
				s.log.Warn("lifecycle "+name+" failed", "err", err)
				s.controlError(w, "lifecycle "+name, http.StatusInternalServerError, err)
				return
			}
		}
		s.writeJSON(w, http.StatusOK, l.Status())
	}
}
