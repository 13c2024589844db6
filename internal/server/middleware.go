package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Option configures optional server subsystems.
type Option func(*Server)

// WithMetrics wires a metrics registry into the request path and exposes
// it at GET /metrics in Prometheus text format.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
}

// WithLogger attaches a structured logger; each request is logged at
// debug level and panics at error level.
func WithLogger(log *obs.Logger) Option {
	return func(s *Server) { s.log = log }
}

// WithPprof mounts net/http/pprof under /debug/pprof/.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithModelManager supplies an externally-owned model manager (for
// boot-time loading and SIGHUP-driven reloads); the model argument to
// New is then ignored. The caller should build it with the same registry
// passed to WithMetrics so swap metrics land in one exposition.
func WithModelManager(mm *core.ModelManager) Option {
	return func(s *Server) { s.models = mm }
}

// WithBatchWorkers bounds the goroutines one batch classify request fans
// out over (<= 0 means GOMAXPROCS).
func WithBatchWorkers(n int) Option {
	return func(s *Server) { s.batchWorkers = n }
}

// WithFlightRecorder arms the serving-path flight recorder: every
// request produces one wide event in rec's tail-sampled ring, and the
// /debug/requests, /debug/slo and /debug/bundle endpoints are mounted
// over it. Build rec with flight.NewRecorder; pass the same registry as
// WithMetrics in rec's bundle config so captured bundles carry the
// server's own metrics.
func WithFlightRecorder(rec *flight.Recorder) Option {
	return func(s *Server) { s.flight = rec }
}

// pathLabel bounds the cardinality of the path metric label: a path in
// the route table reports as itself, pprof's subtree as one label, and
// anything else as "other".
func (s *Server) pathLabel(p string) string {
	if strings.HasPrefix(p, "/debug/pprof") {
		return "/debug/pprof"
	}
	if _, ok := s.governedPath[p]; ok {
		return p
	}
	return "other"
}

// statusWriter captures the response status code for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers (notably
// /debug/pprof/profile and /debug/pprof/trace) keep working through the
// middleware. Flushing commits the headers, so it pins the status.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		if w.status == 0 {
			w.status = http.StatusOK
		}
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// requestSeq numbers requests process-wide for X-Request-ID generation.
var requestSeq atomic.Uint64

// requestID returns the inbound X-Request-ID or mints one. IDs combine
// the server boot stamp with a process-wide sequence number, so they are
// unique without consuming any randomness the pipeline depends on.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" {
		return id
	}
	return fmt.Sprintf("%x-%06d", s.bootStamp, requestSeq.Add(1))
}

// wrap is the middleware chain applied to every request: request ID ->
// wide-event assembly -> panic recovery -> metrics -> logging ->
// handler. The X-Request-Id response header is set before the handler
// runs, so every disposition -- 200, 429, 504, panic-500 -- echoes the
// ID the flight recorder filed the request's wide event under.
func (s *Server) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.requestID(r)
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		pl := s.pathLabel(r.URL.Path)

		// The wide event rides the request context so every layer below
		// (admission control, fault sites, the batch row fan-out) can
		// annotate it without new plumbing; when the recorder is not
		// armed this whole block is one nil check.
		var fe *flight.Active
		if s.flight != nil {
			fe = flight.NewActive(id, r.Method, pl, start)
			r = r.WithContext(flight.With(r.Context(), fe))
		}

		if s.metrics != nil {
			inFlight := s.metrics.Gauge("http_in_flight_requests")
			inFlight.Inc()
			defer inFlight.Dec()
		}

		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				fe.MarkPanic()
				fe.SetErr(fmt.Sprint(rec))
				s.metrics.Counter("http_panics_total").Inc()
				s.log.Error("handler panic", "id", id, "path", r.URL.Path, "panic", rec)
				if sw.status == 0 {
					s.writeError(sw, http.StatusInternalServerError, "internal error (request %s)", id)
				}
			}
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			if s.metrics != nil {
				s.metrics.Counter("http_requests_total",
					"path", pl, "code", strconv.Itoa(sw.status)).Inc()
				s.metrics.Histogram("http_request_seconds", nil, "path", pl).
					ObserveDuration(start)
			}
			fe.Finalize(sw.status, time.Since(start))
			s.flight.Record(fe)
			s.log.Debug("request",
				"id", id, "method", r.Method, "path", r.URL.Path,
				"status", sw.status, "dur", time.Since(start).Round(time.Microsecond))
		}()

		// The resilience layer governs the classification endpoints:
		// deadline via context, then bounded admission. Everything else
		// (warehouse reads, /metrics, pprof) bypasses it, so operators
		// can always observe an overloaded server.
		if s.governedPath[r.URL.Path] && (s.limiter != nil || s.resilience.RequestTimeout > 0) {
			s.govern(sw, r, func(r *http.Request) { next.ServeHTTP(sw, r) })
			return
		}
		next.ServeHTTP(sw, r)
	})
}

// declareMetrics pre-declares this package's metric families' HELP text
// so /metrics carries it before the first request lands (nil-safe
// without a registry). The go_*, flight_* and slo_* families are
// declared where they are written, in internal/obs and its flight
// package.
func (s *Server) declareMetrics() {
	s.metrics.Help("http_requests_total", "HTTP requests by path and status code.")
	s.metrics.Help("http_request_seconds", "HTTP request latency in seconds by path.")
	s.metrics.Help("http_in_flight_requests", "Requests currently being served.")
	s.metrics.Help("http_panics_total", "Requests that panicked in a handler.")
	s.metrics.Help("classify_outcomes_total", "Classification outcomes, counted per row for batch requests.")
	s.metrics.Help("classify_batch_rows", "Rows per batch classification request.")
	s.metrics.Help("classify_row_seconds", "Per-row model inference latency in seconds.")
	s.metrics.Help("http_encode_errors_total", "JSON response bodies that failed to encode after the status was committed.")
	s.metrics.Help("http_shed_total", "Requests rejected by admission control (429), by reason.")
	s.metrics.Help("http_timeouts_total", "Requests that exceeded their deadline (504), by stage (queue or handler).")
	s.metrics.Help("model_breaker_state", "Model-reload circuit breaker position: 0 closed, 1 half-open, 2 open.")
	s.metrics.Help("model_breaker_rejections_total", "Model reload attempts rejected because the breaker was open.")
	s.metrics.Help("classify_row_panics_total", "Row inference panics isolated by the worker pool.")
	s.metrics.Help("discover_assign_outcomes_total", "Discovery assignment outcomes (assigned, anomalous, bad_request, oversized, no_model, timeout, error).")
	s.metrics.Help("discover_assign_seconds", "Per-row discovery assignment latency in seconds.")
}
