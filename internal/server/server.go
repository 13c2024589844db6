// Package server exposes the warehouse and a trained job classifier over
// HTTP -- the paper's stated destination for this work: "we do plan to
// develop the machine learning technology that was explored in this work
// into production tools for use in XDMoD". The API mirrors the XDMoD
// views: overview totals, dimensional group-bys, drill-downs, monthly
// utilization, and online classification endpoints (single-row and
// batch) that label SUPReMM summaries with a probability threshold. The
// serving model lives behind a core.ModelManager, so operators can
// retrain and hot-swap it without restarting the server.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/resilience"
	"repro/internal/warehouse"
)

// Warehouse is what the server reads: each of the five warehouse routes
// (overview, group-by, drill-down, utilization, rollup) queries one
// snapshot and writes the warehouse package's own value as it encodes.
// The snapshot's group tables answer the overview and group-by routes in
// O(groups); the others walk its records.
// *warehouse.Sharded (job-id order) provides it in supremm-serve, where
// it is the only copy of the workload and ingest grows it;
// *warehouse.Store (ingest order) provides it to tests and the
// benchmark, which serve a fixed record set.
type Warehouse interface {
	Snapshot() *warehouse.WarehouseSnapshot
}

// Server wires the API handlers to a warehouse and an optional
// classifier.
type Server struct {
	store        Warehouse
	models       *core.ModelManager
	discovery    *core.DiscoveryManager
	machineNodes int
	mux          *http.ServeMux
	handler      http.Handler
	// governedPath holds every routed path and whether the admission
	// queue and request deadline apply to it; derived from the route
	// table, it also bounds the cardinality of the path metric label.
	governedPath map[string]bool

	// The governed-row pipelines, one per served model family (the batch
	// endpoint rides the classify pipeline).
	classify  rowRoute[*core.JobClassifier, classifyRequest, classifyResult]
	assign    rowRoute[*core.DiscoveryModel, assignRequest, *core.Assignment]
	batchRows *obs.Histogram

	metrics      *obs.Registry
	log          *obs.Logger
	pprof        bool
	batchWorkers int
	bootStamp    int64
	flight       *flight.Recorder
	// ops serves /metrics and /debug/{requests,slo,bundle} and writes
	// every JSON reply.
	ops flight.Ops
	// ingest, when armed, is the streaming write path feeding the
	// warehouse: /debug/ingest reports it and /readyz fails while it
	// drains.
	ingest *ingest.Server

	resilience ResilienceConfig
	limiter    *resilience.Limiter
	breakerCfg resilience.BreakerConfig
	breaker    *resilience.Breaker
	faults     *resilience.Faults

	lifecyclePending func() // WithLifecycle's wiring, run once New has built its parts
	lifecycle        *lifecycle.Loop
	lifecycleCh      chan struct{}
}

// route is one row of the route table: the single source for mux
// registration, the path metric label set and the governed flag.
type route struct {
	method   string // "" = any method (pprof)
	path     string
	handler  http.HandlerFunc
	governed bool // the request deadline and admission queue apply
	mounted  bool // false: labelled but not registered (subsystem not armed)
}

// routes is the route table. The governed rows are the model-serving
// endpoints (the expensive paths); control-plane mutations are guarded
// by the breaker instead, and warehouse reads, /metrics and /debug stay
// ungoverned so operators can always observe an overloaded server. A new
// served model family is one governed row here plus one score func.
func (s *Server) routes() []route {
	metrics, armed := s.metrics != nil, s.flight != nil
	return []route{
		// method, path, handler, governed, mounted
		{"GET", "/api/overview", s.handleOverview, false, true},
		{"GET", "/api/groupby", s.handleGroupBy, false, true},
		{"GET", "/api/drilldown", s.handleDrillDown, false, true},
		{"GET", "/api/utilization", s.handleUtilization, false, true},
		{"GET", "/api/rollup", s.handleRollup, false, true},
		{"GET", "/api/features", s.handleFeatures, false, true},
		{"POST", "/api/classify", s.classify.ServeHTTP, true, true},
		{"POST", "/api/classify/batch", s.handleClassifyBatch, true, true},
		{"GET", "/api/discover", s.handleDiscoverGet, false, true},
		{"POST", "/api/discover", s.handleDiscoverRefit, false, true},
		{"POST", "/api/discover/assign", s.assign.ServeHTTP, true, true},
		{"POST", "/admin/model/reload", s.handleModelReload, false, true},
		{"GET", "/api/lifecycle", s.lifecycleOp("status", nil), false, true},
		{"POST", "/admin/lifecycle/retrain", s.lifecycleOp("retrain", (*lifecycle.Loop).Retrain), false, true},
		{"POST", "/admin/lifecycle/promote", s.lifecycleOp("promote", (*lifecycle.Loop).Decide), false, true},
		{"POST", "/admin/lifecycle/rollback", s.lifecycleOp("rollback", (*lifecycle.Loop).Rollback), false, true},
		{"GET", "/metrics", s.ops.Metrics, false, metrics},
		{"GET", "/healthz", s.handleHealthz, false, true},
		{"GET", "/readyz", s.handleReadyz, false, true},
		{"GET", "/debug/requests", s.ops.Requests, false, armed},
		{"GET", "/debug/slo", s.ops.SLO, false, armed},
		{"GET", "/debug/bundle", s.ops.Bundle, false, armed},
		{"GET", "/debug/ingest", s.handleIngestStatus, false, s.ingest != nil},
		{"", "/debug/pprof/", pprof.Index, false, s.pprof},
		{"", "/debug/pprof/cmdline", pprof.Cmdline, false, s.pprof},
		{"", "/debug/pprof/profile", pprof.Profile, false, s.pprof},
		{"", "/debug/pprof/symbol", pprof.Symbol, false, s.pprof},
		{"", "/debug/pprof/trace", pprof.Trace, false, s.pprof},
	}
}

// New builds a server over a warehouse. model may be nil (the classify
// endpoints then return 503 until a model is swapped in); it seeds the
// server's model manager unless WithModelManager supplies one.
// machineNodes sizes the utilization report. Options add metrics
// (/metrics), structured logging, pprof endpoints and the ingest path.
func New(store Warehouse, model *core.JobClassifier, machineNodes int, opts ...Option) *Server {
	s := &Server{
		store: store, machineNodes: machineNodes,
		mux:       http.NewServeMux(),
		bootStamp: time.Now().UnixNano(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.ops = flight.Ops{Reg: s.metrics, Rec: s.flight, Log: s.log}
	s.initResilience()
	if s.models == nil {
		s.models = core.NewModelManager(s.metrics)
		if model != nil {
			if _, err := s.models.Swap(model); err != nil {
				s.log.Error("initial model rejected", "err", err)
			}
		}
	}
	s.discovery = core.NewDiscoveryManager(s.metrics)
	if s.lifecyclePending != nil {
		s.lifecyclePending()
	}
	s.declareMetrics()
	s.initRowRoutes()
	s.governedPath = map[string]bool{}
	for _, rt := range s.routes() {
		s.governedPath[rt.path] = rt.governed
		if rt.mounted {
			s.mux.HandleFunc(strings.TrimSpace(rt.method+" "+rt.path), rt.handler)
		}
	}
	s.handler = s.wrap(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.ops.WriteJSON(w, status, v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.ops.WriteError(w, status, format, args...)
}

func (s *Server) handleOverview(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.store.Snapshot().Totals())
}

func parseDim(r *http.Request, param string) (warehouse.Dimension, error) {
	return warehouse.ParseDimension(r.URL.Query().Get(param))
}

func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	dim, err := parseDim(r, "dim")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.store.Snapshot().GroupBy(dim))
}

func (s *Server) handleDrillDown(w http.ResponseWriter, r *http.Request) {
	outer, err := parseDim(r, "outer")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	inner, err := parseDim(r, "inner")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.store.Snapshot().DrillDown(outer, inner))
}

func (s *Server) handleRollup(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.store.Snapshot().Rollup())
}

func (s *Server) handleUtilization(w http.ResponseWriter, r *http.Request) {
	nodes := s.machineNodes
	if q := r.URL.Query().Get("nodes"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			s.writeError(w, http.StatusBadRequest, "bad nodes parameter %q", q)
			return
		}
		nodes = n
	}
	if nodes <= 0 {
		s.writeError(w, http.StatusBadRequest, "machine node count not configured; pass ?nodes=N")
		return
	}
	pts := s.store.Snapshot().Utilization(nodes)
	if pts == nil {
		pts = []warehouse.UtilizationPoint{}
	}
	s.writeJSON(w, http.StatusOK, pts)
}

// handleFeatures reports the schema of the served classifier (features,
// classes, generation, engine), so clients and the load generator can
// build valid request bodies.
func (s *Server) handleFeatures(w http.ResponseWriter, r *http.Request) {
	v := s.models.View()
	if v == nil {
		s.writeError(w, http.StatusServiceUnavailable, "%s", s.classify.noModel)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"algorithm":  v.Model.Algo,
		"features":   v.Model.Features,
		"classes":    v.Model.Classes(),
		"generation": v.Generation,
		"compiled":   v.Compiled(),
	})
}

// classifyRequest is the classification endpoint's body: a feature map
// keyed by attribute name. Attributes the model knows but the request
// omits default to 0 and are reported back in the response's "defaulted"
// field; an entirely empty map is rejected.
type classifyRequest struct {
	Features  map[string]float64 `json:"features"`
	Threshold float64            `json:"threshold"`
}

// classifyResult is one row's classification. The single and batch
// endpoints share it, so a batch element is byte-identical to the
// corresponding single-row response.
type classifyResult struct {
	Label       string   `json:"label"`
	Probability float64  `json:"probability"`
	Classified  bool     `json:"classified"`
	Defaulted   []string `json:"defaulted"`
}

// maxClassifyBody caps a single-row (or control-plane) request body. A
// legitimate request is a small feature map; anything beyond this is
// hostile or misrouted and is rejected before the JSON decoder buffers
// it.
const maxClassifyBody = 1 << 20

// decodeBody decodes a control-plane request body: readBody's capped
// read, then decodeJSON over those bytes. On failure it writes the
// response and returns its status -- 413 past the cap, 400 for malformed
// JSON or anything but whitespace after the value -- and 0 on success.
// emptyOK lets the routes whose every field is optional accept a
// bodyless POST. The row routes call readBody themselves, so a scanner
// sees the bytes before decodeJSON does.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, dst any, emptyOK bool) int {
	body, err := readBody(w, r, limit)
	return s.bodyStatus(w, decodeJSON(body, err, dst, emptyOK))
}

// readBody is the one capped read of a request body: the bytes up to
// limit, in a buffer pre-sized from Content-Length (never past the
// limit), and the error that ended the read -- nil for a complete body,
// a *http.MaxBytesError past the cap.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	size := int64(512)
	if r.ContentLength > 0 {
		// One byte past the body, so the read that reports EOF needs no
		// growth.
		size = min(r.ContentLength, limit) + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeJSON decodes exactly one JSON value into dst from a body
// readBody returned, replaying the read's error where the bytes end: the
// decoder meets the same bytes and the same failure as if it read the
// request itself, so a syntax error before the cap stays a 400 and
// padding past the cap a 413.
func decodeJSON(body []byte, readErr error, dst any, emptyOK bool) error {
	if readErr == nil {
		readErr = io.EOF
	}
	dec := json.NewDecoder(&replay{body, readErr})
	err := dec.Decode(dst)
	switch {
	case err == nil:
		if _, err = dec.Token(); errors.Is(err, io.EOF) {
			return nil
		}
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
	case errors.Is(err, io.EOF) && emptyOK:
		return nil
	}
	return err
}

// replay reads out a body already read, then the error that ended it.
type replay struct {
	body []byte
	err  error
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.body) == 0 {
		return 0, r.err
	}
	n := copy(p, r.body)
	r.body = r.body[n:]
	return n, nil
}

// bodyStatus writes the refusal for a decodeJSON error and returns its
// status: 413 past the cap, 400 for anything else, 0 for no error.
func (s *Server) bodyStatus(w http.ResponseWriter, err error) int {
	if err == nil {
		return 0
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return http.StatusRequestEntityTooLarge
	}
	s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	return http.StatusBadRequest
}

// initRowRoutes instantiates the governed-row pipeline once per served
// model family, binding each one's metric handles.
func (s *Server) initRowRoutes() {
	s.batchRows = s.metrics.Histogram("classify_batch_rows", batchSizeBuckets())

	s.classify = rowRoute[*core.JobClassifier, classifyRequest, classifyResult]{
		s: s, mgr: s.models, noModel: "no classifier loaded", site: FaultClassifyRow,
		features: func(_ *core.ModelView, req *classifyRequest) (map[string]float64, error) {
			return req.Features, threshold01(req.Threshold)
		},
		threshold: func(req *classifyRequest) *float64 { return &req.Threshold },
		score: func(v *core.ModelView, req *classifyRequest, row []float64) (classifyResult, bool, error) {
			label, prob, ok := v.Model.Classify(row, req.Threshold)
			return classified(v, row, core.Verdict{Label: label, Prob: prob, OK: ok})
		},
		// The lifecycle loop observes every successfully inferred row: the
		// served answer is already final, so drift accounting and shadow
		// scoring cannot perturb it (nil-safe no-op when disabled).
		observed: func(ctx context.Context, row []float64, res classifyResult) {
			s.lifecycle.Observe(ctx, row, res.Label)
		},
		reply: func(_ *core.ModelView, _ *classifyRequest, res classifyResult, defaulted []string) any {
			res.Defaulted = defaulted
			return res
		},
	}
	s.classify.bindMetrics("classify_outcomes_total", "classify_row_seconds", "classified", "below_threshold")

	s.assign = rowRoute[*core.DiscoveryModel, assignRequest, *core.Assignment]{
		s: s, mgr: s.discovery, noModel: "no discovery fit loaded", site: FaultDiscoverAssign,
		features: func(_ *core.DiscoveryView, req *assignRequest) (map[string]float64, error) {
			return req.Features, nil
		},
		score: func(v *core.DiscoveryView, _ *assignRequest, row []float64) (*core.Assignment, bool, error) {
			a, err := v.Model.Assign(row)
			if err == nil {
				err = finiteAssign(v.Model, row, a)
			}
			return a, err == nil && a.Anomalous, err
		},
		reply: assignReply,
	}
	s.assign.bindMetrics("discover_assign_outcomes_total", "discover_assign_seconds", "anomalous", "assigned")
}
