package server

import (
	"net/http"

	"repro/internal/resilience"
)

// handleHealthz is pure liveness: the process is up and the mux is
// serving. It never consults the model or the breaker, so orchestrators
// keep a wedged-but-alive process distinguishable from a dead one.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether this instance should receive traffic: a
// model must be published and the reload breaker must not be open. An
// open breaker means reloads are failing repeatedly -- the instance
// still serves its last good model, but flagging it not-ready lets a
// balancer drain it before operators rotate it. 503 carries the failing
// conditions so the probe's reason is visible without log access.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.models.View() == nil {
		reasons = append(reasons, "no model loaded")
	}
	if s.breaker != nil && s.breaker.State() == resilience.BreakerOpen {
		reasons = append(reasons, "model reload breaker open")
	}
	if len(reasons) > 0 {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":  "unavailable",
			"reasons": reasons,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": s.models.Generation(),
	})
}
