package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/parallel"
)

// rowRoute is the governed-row pipeline every model-serving endpoint
// instantiates: capture the view (503 without one) -> annotate the wide
// event -> read the capped body -> scan it straight into the feature
// vector, or decode, validate and resolve names through encoding/json
// for every body the scanner declines -> fault site -> deadline -> timed
// model call -> outcome counter -> reply. A model family (M) supplies
// only its manager, request type (Q), validator and threshold field,
// score func and result (R), fault site and outcome family. Metric
// handles are bound once, so the per-row stage never touches the
// registry.
type rowRoute[M core.Servable, Q, R any] struct {
	s       *Server
	mgr     *core.Manager[M]
	noModel string // 503 text while nothing is published
	site    string // fault site consulted once per row

	// features validates the route-specific request fields and returns
	// the name-keyed feature map; an error is the 400 message.
	features func(v *core.View[M], req *Q) (map[string]float64, error)
	// threshold, when set, points at the request's threshold field, which
	// scanRow then fills; a route without one declines the key.
	threshold func(req *Q) *float64
	// score is the timed model call; hit picks which of the family's two
	// verdict outcomes the row counts as.
	score func(v *core.View[M], req *Q, row []float64) (res R, hit bool, err error)
	// observed, when set, sees each scored row once its answer is final.
	observed func(ctx context.Context, row []float64, res R)
	// reply shapes the single-row 200 body.
	reply func(v *core.View[M], req *Q, res R, defaulted []string) any

	latency *obs.Histogram
	out     struct{ noModel, oversized, badRequest, timeout, failed, hit, miss *obs.Counter }
}

// bindMetrics resolves the latency histogram and the family{outcome=...}
// counters once; hit and miss name the two verdict outcomes.
func (p *rowRoute[M, Q, R]) bindMetrics(family, latency, hit, miss string) {
	reg := p.s.metrics
	p.latency = reg.Histogram(latency, rowLatencyBuckets)
	outcome := func(name string) *obs.Counter { return reg.Counter(family, "outcome", name) }
	p.out.noModel, p.out.oversized, p.out.badRequest = outcome("no_model"), outcome("oversized"), outcome("bad_request")
	p.out.timeout, p.out.failed = outcome("timeout"), outcome("error")
	p.out.hit, p.out.miss = outcome(hit), outcome(miss)
}

// rowLatencyBuckets spans per-row inference latency, which sits in the
// microsecond-to-millisecond range -- far below the default HTTP
// request buckets.
var rowLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1,
}

// view captures the serving view for the whole request (so a hot-swap
// landing mid-request cannot split it across generations) and stamps it
// onto the wide event; with no model published it answers 503.
func (p *rowRoute[M, Q, R]) view(w http.ResponseWriter, r *http.Request) *core.View[M] {
	v := p.mgr.View()
	if v == nil {
		p.out.noModel.Inc()
		p.s.writeError(w, http.StatusServiceUnavailable, "%s", p.noModel)
		return nil
	}
	v.Annotate(flight.From(r.Context()))
	return v
}

// refused counts a body refusal by the status bodyStatus answered it
// with; true means the response is already written.
func (p *rowRoute[M, Q, R]) refused(status int) bool {
	switch status {
	case 0:
		return false
	case http.StatusRequestEntityTooLarge:
		p.out.oversized.Inc()
	default:
		p.out.badRequest.Inc()
	}
	return true
}

// bad counts and writes a request validation failure.
func (p *rowRoute[M, Q, R]) bad(w http.ResponseWriter, format string, args ...any) {
	p.out.badRequest.Inc()
	p.s.writeError(w, http.StatusBadRequest, format, args...)
}

// resolveRow maps a name-keyed feature map onto the model's feature
// vector using the view's prebuilt index: O(F + len(features)) total.
// defaulted lists model features absent from the request, in model
// feature order. The error is the 400 message: unknown names, or an
// empty map, which would silently score an all-zero row -- client schema
// drift must surface as an error, not a confident answer.
func resolveRow[M core.Servable](v *core.View[M], features map[string]float64) (row []float64, defaulted []string, err error) {
	if len(features) == 0 {
		return nil, nil, errors.New("empty or missing features map")
	}
	row = make([]float64, v.NumFeatures())
	var unknown []string
	for name, val := range features {
		idx, ok := v.FeatureIndex(name)
		if !ok {
			unknown = append(unknown, name)
			continue
		}
		row[idx] = val
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, nil, fmt.Errorf("unknown features: %v", unknown)
	}
	defaulted = []string{}
	for _, name := range v.Model.FeatureNames() {
		if _, ok := features[name]; !ok {
			defaulted = append(defaulted, name)
		}
	}
	return row, defaulted, nil
}

// row is the per-row stage single and batch requests share: admit, the
// timed model call, settle. The batch route scores a block of rows in
// one model call between the same two helpers, called per row.
func (p *rowRoute[M, Q, R]) row(ctx context.Context, v *core.View[M], req *Q, row []float64) (R, error) {
	if err := p.admit(ctx); err != nil {
		var none R
		return none, err
	}
	start := time.Now()
	res, hit, err := p.score(v, req, row)
	return p.settle(ctx, row, res, hit, err, time.Since(start))
}

// admit is a row's stage ahead of the model call: the fault site, then
// the deadline. An injected error fails the row, an expired context
// aborts it before inference (callers map it to 504), and an injected
// panic propagates so the isolation layers (pool PanicError for batch,
// middleware recovery for single) can prove they contain it.
func (p *rowRoute[M, Q, R]) admit(ctx context.Context) error {
	if fired, err := p.s.faults.InjectReport(p.site); fired {
		// Injected latency and errors alike are fault hits the wide
		// event attributes; a fired latency fault falls through to real
		// inference with err == nil.
		flight.From(ctx).MarkFault()
		if err != nil {
			p.out.failed.Inc()
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		p.out.timeout.Inc()
		return err
	}
	return nil
}

// settle is a row's stage after the model call returned res, hit and
// err in took (the row's share of a block call): latency, outcome
// counter, and the observed hook for a row that scored.
func (p *rowRoute[M, Q, R]) settle(ctx context.Context, row []float64, res R, hit bool, err error, took time.Duration) (R, error) {
	var none R
	p.latency.Observe(took.Seconds())
	switch {
	case err == nil && hit:
		p.out.hit.Inc()
	case err == nil:
		p.out.miss.Inc()
	case errors.As(err, new(*outOfRangeError)):
		p.out.badRequest.Inc()
		return none, err
	default:
		p.out.failed.Inc()
		return none, err
	}
	if p.observed != nil {
		p.observed(ctx, row, res)
	}
	return res, nil
}

// ServeHTTP is the single-row composition of the pipeline.
func (p *rowRoute[M, Q, R]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v := p.view(w, r)
	if v == nil {
		return
	}
	fe := flight.From(r.Context())
	t := time.Now()
	body, err := readBody(w, r, maxClassifyBody)
	t = fe.Lap(flight.StageRead, t)
	var req Q
	var row []float64
	var defaulted []string
	ok := false
	if err == nil {
		row, defaulted, ok = p.scan(v, body, &req)
	}
	if !ok {
		if row, defaulted, ok = p.decodeRow(w, v, body, err, &req); !ok {
			return
		}
	}
	fe.Lap(flight.StageDecode, t)
	p.answer(w, r, v, &req, row, defaulted)
}

// scan is scanRow over the route's request: the body may carry a
// threshold only when the request has the field.
func (p *rowRoute[M, Q, R]) scan(v *core.View[M], body []byte, req *Q) (row []float64, defaulted []string, ok bool) {
	var threshold *float64
	if p.threshold != nil {
		threshold = p.threshold(req)
	}
	return scanRow(v, body, threshold)
}

// decodeRow is the single-row routes' encoding/json path over a body
// readBody returned: decode into the request, run the route's validator,
// resolve the feature map onto the model's row. ok false means the
// refusal is already written. It is the only decoder of the bodies
// scanRow declines, and the oracle scanRow is tested against.
func (p *rowRoute[M, Q, R]) decodeRow(w http.ResponseWriter, v *core.View[M], body []byte, readErr error, req *Q) (row []float64, defaulted []string, ok bool) {
	if p.refused(p.s.bodyStatus(w, decodeJSON(body, readErr, req, false))) {
		return nil, nil, false
	}
	features, err := p.features(v, req)
	if err == nil {
		row, defaulted, err = resolveRow(v, features)
	}
	if err != nil {
		p.bad(w, "%v", err)
		return nil, nil, false
	}
	return row, defaulted, true
}

// answer scores a decoded row and writes the single-row reply.
func (p *rowRoute[M, Q, R]) answer(w http.ResponseWriter, r *http.Request, v *core.View[M], req *Q, row []float64, defaulted []string) {
	fe := flight.From(r.Context())
	start := time.Now()
	res, err := p.row(r.Context(), v, req, row)
	t := fe.Lap(flight.StageScore, start)
	// Observe the single row's time into the wide event the same way the
	// batch fan-out does, so RowNS/Rows mean one thing on every route.
	fe.Timer().Observe(t.Sub(start))
	if err != nil {
		p.s.rowError(w, r, err)
		return
	}
	p.s.writeJSON(w, http.StatusOK, p.reply(v, req, res, defaulted))
	fe.Lap(flight.StageEncode, t)
}

// outOfRangeError fails a row whose feature values the model could not
// turn into a probability: the client's to fix, so a 400 naming them.
type outOfRangeError struct {
	features []string
	row      int // position in a batch; -1 on the single-row routes
}

func (e *outOfRangeError) Error() string {
	if e.row < 0 {
		return fmt.Sprintf("features out of range: %v", e.features)
	}
	return fmt.Sprintf("row %d: features out of range: %v", e.row, e.features)
}

// finiteProb is the last check of a JobClassifier score func: no
// governed row route answers 200 with a probability encoding/json will
// refuse after the status is committed. The model families stay as they
// are (NB's 0/0 on an overflowing row is what its compiled form, the
// stack and their parity digests reproduce bit for bit); the row fails
// here instead.
func finiteProb(v *core.ModelView, row []float64, prob float64) error {
	if finite(prob) {
		return nil
	}
	return nonFinite(v.Model.OutOfRange(row), "%s model answered probability %v", v.Model.Algo, prob)
}

// finiteAssign is finiteProb's twin for a discovery assignment, whose
// distance and projection overflow on the same rows.
func finiteAssign(m *core.DiscoveryModel, row []float64, a *core.Assignment) error {
	ok := finite(a.Distance)
	for _, x := range a.Projection {
		ok = ok && finite(x)
	}
	if ok {
		return nil
	}
	return nonFinite(m.OutOfRange(row), "discovery fit answered distance %v, projection %v", a.Distance, a.Projection)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// nonFinite fails a row whose answer is not a finite number: a 400
// naming the out-of-range features the model blames, or, when it blames
// none, the model's own fault.
func nonFinite(blame []string, format string, args ...any) error {
	if len(blame) > 0 {
		return &outOfRangeError{features: blame, row: -1}
	}
	return fmt.Errorf(format, args...)
}

// rowError maps a failed row (single or batch) to its response: a row
// of out-of-range features is a 400, deadline overruns are 504s counted
// in http_timeouts_total, isolated row panics and injected faults are
// 500s. Nothing has been written yet in either caller, so the status
// always commits cleanly. The request's wide event picks up the terminal
// error (and, for an isolated row panic, the panic flag) so
// /debug/requests can attribute the 5xx to its cause.
func (s *Server) rowError(w http.ResponseWriter, r *http.Request, err error) {
	fe := flight.From(r.Context())
	var pe *parallel.PanicError
	var oor *outOfRangeError
	switch {
	case errors.As(err, &oor):
		s.writeError(w, http.StatusBadRequest, "%v", oor)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.timedOut(w, r, "handler")
	case errors.As(err, &pe):
		fe.MarkPanic()
		fe.SetErr(fmt.Sprintf("row %d inference panicked: %v", pe.Index, pe.Value))
		s.metrics.Counter("classify_row_panics_total").Inc()
		s.log.Error("classify row panic isolated", "task", pe.Index, "panic", pe.Value)
		s.writeError(w, http.StatusInternalServerError,
			"internal error: row %d inference panicked (isolated)", pe.Index)
	default:
		fe.SetErr(err.Error())
		s.writeError(w, http.StatusInternalServerError, "internal error: %v", err)
	}
}

// threshold01 validates a probability threshold.
func threshold01(t float64) error {
	if t < 0 || t > 1 {
		return errors.New("threshold must be in [0,1]")
	}
	return nil
}
