package flight

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Ops serves the operator endpoints that need nothing but a metrics
// registry and a flight recorder -- /metrics, /debug/requests,
// /debug/slo, /debug/bundle -- and writes the JSON replies of every
// route beside them. Reg, Rec and Log may each be nil.
type Ops struct {
	Reg *obs.Registry
	Rec *Recorder
	Log *obs.Logger
}

// WriteJSON encodes v after committing status. Encode failures past that
// point cannot change the response code, so they are logged and counted
// in http_encode_errors_total instead of silently dropped: a truncated
// response body is observable, not invisible.
func (o Ops) WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		o.Reg.Counter("http_encode_errors_total").Inc()
		o.Log.Warn("response encode failed", "status", status, "err", err)
	}
}

// WriteError replies {"error": ...} with the given status.
func (o Ops) WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	o.WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Metrics serves the Prometheus exposition. Scrape-time collection
// hooks: Go runtime gauges and the flight recorder's ledger/burn gauges
// refresh here, so the exposition is always current without a
// background ticker.
func (o Ops) Metrics(w http.ResponseWriter, r *http.Request) {
	obs.CollectRuntime(o.Reg)
	o.Rec.Export(o.Reg)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := o.Reg.WritePrometheus(w); err != nil {
		o.Log.Warn("metrics write failed", "err", err)
	}
}

// debugRequestsDefaultLimit bounds an unqualified /debug/requests reply;
// pass limit=-1 (or any negative) to dump the whole ring.
const debugRequestsDefaultLimit = 100

// Requests queries the flight recorder's ring. Filters:
//
//	id=abc123           exact X-Request-Id: one request's wide event,
//	                    stage timings included
//	status=504          exact response code
//	route=/api/classify path-label prefix
//	outcome=shed        derived disposition
//	min-ms=250          minimum request duration in milliseconds
//	since=RFC3339       only requests that started at/after this instant
//	limit=N             most recent N matches (default 100; -1 = all,
//	                    0 = count only)
//
// The reply carries the reconciliation stats alongside the matches, so
// one call answers both "show me the 504s" and "is the ledger balanced".
func (o Ops) Requests(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := Filter{ID: q.Get("id"), Route: q.Get("route"), Outcome: q.Get("outcome"), Limit: debugRequestsDefaultLimit}
	if v := q.Get("status"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			o.WriteError(w, http.StatusBadRequest, "bad status parameter %q", v)
			return
		}
		f.Status = n
	}
	if v := q.Get("min-ms"); v != "" {
		// NaN, Inf and values whose nanoseconds overflow a Duration are
		// refused: out of range the conversion is implementation-defined
		// (math.MinInt64 on amd64), and a negative MinDuration turns the
		// filter off, answering every event.
		ms, err := strconv.ParseFloat(v, 64)
		ns := ms * float64(time.Millisecond)
		if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
			o.WriteError(w, http.StatusBadRequest, "bad min-ms parameter %q", v)
			return
		}
		f.MinDuration = time.Duration(ns)
	}
	if v := q.Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			o.WriteError(w, http.StatusBadRequest, "bad since parameter %q (want RFC3339)", v)
			return
		}
		f.Since = t
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			o.WriteError(w, http.StatusBadRequest, "bad limit parameter %q", v)
			return
		}
		f.Limit = n
	}
	events, matched := o.Rec.Query(f)
	if events == nil {
		events = []Event{}
	}
	o.WriteJSON(w, http.StatusOK, map[string]any{
		"stats":   o.Rec.Stats(),
		"matched": matched,
		"events":  events,
	})
}

// SLO reports the burn-rate engine's current view of both objectives
// over every window; without a recorder it answers {"enabled":false}.
func (o Ops) SLO(w http.ResponseWriter, r *http.Request) {
	st := o.Rec.SLOStatus()
	if st == nil {
		o.WriteJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	o.WriteJSON(w, http.StatusOK, st)
}

// Bundle captures a diagnostic bundle on operator demand, bypassing the
// automatic-capture rate limit (an operator asking twice means they
// want two bundles). 503 when bundles are disabled (no bundle
// directory), 500 when the capture itself failed.
func (o Ops) Bundle(w http.ResponseWriter, r *http.Request) {
	reason := r.URL.Query().Get("reason")
	if reason == "" {
		reason = "manual"
	}
	b, err := o.Rec.Capture(reason, true)
	switch {
	case errors.Is(err, ErrBundlesDisabled):
		o.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		o.WriteError(w, http.StatusInternalServerError, "bundle capture failed: %v", err)
	default:
		o.WriteJSON(w, http.StatusOK, b)
	}
}
