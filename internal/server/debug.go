package server

import (
	"net/http"

	"repro/internal/ingest"
	"repro/internal/resilience"
)

// WithIngest mounts the streaming ingest path's operator view:
// /debug/ingest serves srv's ledger and gauges, and /readyz fails once
// srv drains. Build srv over the same warehouse New serves, with the
// server's registry, logger, faults and flight recorder, so one debug
// surface covers both paths.
func WithIngest(srv *ingest.Server) Option {
	return func(s *Server) { s.ingest = srv }
}

// handleIngestStatus reports the ingest conservation ledger and gauges.
func (s *Server) handleIngestStatus(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.ingest.Status())
}

// handleHealthz is pure liveness: the process is up and the mux is
// serving. It never consults the model or the breaker, so orchestrators
// keep a wedged-but-alive process distinguishable from a dead one.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether this instance should receive traffic: a
// model must be published, the reload breaker must not be open, and an
// armed ingest path must not be draining. An open breaker means reloads
// are failing repeatedly -- the instance still serves its last good
// model, but flagging it not-ready lets a balancer drain it before
// operators rotate it. 503 carries the failing conditions so the probe's
// reason is visible without log access.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.models.View() == nil {
		reasons = append(reasons, "no model loaded")
	}
	if s.breaker != nil && s.breaker.State() == resilience.BreakerOpen {
		reasons = append(reasons, "model reload breaker open")
	}
	if s.ingest != nil && s.ingest.Draining() {
		reasons = append(reasons, "ingest draining")
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
