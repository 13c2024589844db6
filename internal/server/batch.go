package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ml/compile"
	"repro/internal/obs/flight"
	"repro/internal/parallel"
)

// maxBatchRows caps how many feature rows one batch request may carry.
// Larger workloads should be chunked client-side; the cap keeps a single
// request from monopolizing the worker pool or the response buffer.
const maxBatchRows = 4096

// maxBatchBody caps the batch request body (a full 4096x~40-feature
// request is a few MB of JSON).
const maxBatchBody = 16 << 20

// batchSizeBuckets spans request batch sizes from single rows to the
// maxBatchRows cap.
func batchSizeBuckets() []float64 {
	return []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, float64(maxBatchRows)}
}

// batchRequest is the batch classification body. Exactly one of Rows
// (array-of-maps, one feature map per job) or Columns (column-major, one
// equal-length value array per feature) must be set.
type batchRequest struct {
	Rows      []map[string]float64 `json:"rows"`
	Columns   map[string][]float64 `json:"columns"`
	Threshold float64              `json:"threshold"`
}

// batchSummary aggregates a batch response: row counts by outcome and,
// for classified rows, by predicted label.
type batchSummary struct {
	Rows           int            `json:"rows"`
	Classified     int            `json:"classified"`
	BelowThreshold int            `json:"belowThreshold"`
	ByLabel        map[string]int `json:"byLabel"`
}

// batchResponse is the batch classification reply. Results are in
// request row order and each element is byte-identical to the single
// /api/classify response for that row.
type batchResponse struct {
	Results    []classifyResult `json:"results"`
	Summary    batchSummary     `json:"summary"`
	Generation uint64           `json:"generation"`
}

// resolveColumns validates a column-major batch and materializes it into
// per-row feature vectors. All columns must be known features and share
// one length within the row cap; features without a column default to
// zero for every row. Every refusal precedes the n x F allocation, so a
// hostile body cannot make the server build a buffer it will then
// reject.
func resolveColumns(v *core.ModelView, cols map[string][]float64) (rows [][]float64, defaulted []string, err error) {
	var unknown []string
	for name := range cols {
		if _, ok := v.FeatureIndex(name); !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, nil, fmt.Errorf("unknown features: %v", unknown)
	}
	// Lengths are compared in model feature order, not map order, so a
	// ragged body is refused with the same message every time.
	n := -1
	for _, name := range v.Model.Features {
		col, ok := cols[name]
		if !ok {
			continue
		}
		if n == -1 {
			n = len(col)
		} else if len(col) != n {
			return nil, nil, fmt.Errorf("column %q has %d values, others have %d", name, len(col), n)
		}
	}
	if n <= 0 {
		return nil, nil, errors.New("columns form carries no rows")
	}
	if n > maxBatchRows {
		return nil, nil, fmt.Errorf("batch carries %d rows, limit is %d", n, maxBatchRows)
	}
	rows = rowsOf(make([]float64, n*v.NumFeatures()), v.NumFeatures())
	for name, col := range cols {
		idx, _ := v.FeatureIndex(name)
		for i, val := range col {
			rows[i][idx] = val
		}
	}
	defaulted = []string{}
	for _, name := range v.Model.Features {
		if _, ok := cols[name]; !ok {
			defaulted = append(defaulted, name)
		}
	}
	return rows, defaulted, nil
}

// rowsOf slices a row-major buffer of f-wide rows into its rows.
func rowsOf(flat []float64, f int) [][]float64 {
	rows := make([][]float64, len(flat)/f)
	for i := range rows {
		rows[i] = flat[i*f : (i+1)*f]
	}
	return rows
}

// batch is a batch request materialized before inference: per-row
// feature vectors, per-row defaulted lists and the threshold.
type batch struct {
	rows      [][]float64
	defaulted [][]string
	threshold float64
}

// columnsBatch is a column-major batch, whose rows all default the same
// features.
func columnsBatch(rows [][]float64, defaulted []string, threshold float64) batch {
	b := batch{rows: rows, defaulted: make([][]string, len(rows)), threshold: threshold}
	for i := range b.defaulted {
		b.defaulted[i] = defaulted
	}
	return b
}

// handleClassifyBatch classifies up to maxBatchRows feature rows in one
// request: the classify pipeline's stages with the per-row stage fanned
// across the worker pool a block of rows at a time. The model view is captured once, so every row
// in a batch is classified by the same model generation even if a
// hot-swap lands mid-request. A complete body goes to scanBatch first;
// every body it declines is decoded by decodeBatch.
func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	v := s.classify.view(w, r)
	if v == nil {
		return
	}
	fe := flight.From(r.Context())
	t := time.Now()
	body, err := readBody(w, r, maxBatchBody)
	t = fe.Lap(flight.StageRead, t)
	var b batch
	ok := false
	if err == nil {
		b, ok = scanBatch(v, body)
	}
	if !ok {
		if b, ok = s.decodeBatch(w, v, body, err); !ok {
			return
		}
	}
	fe.Lap(flight.StageDecode, t)
	s.classifyBatch(w, r, v, b)
}

// decodeBatch materializes either form through encoding/json, so
// validation errors reject the whole batch up front; ok false means the
// refusal is already written. It is the only decoder of the bodies
// scanBatch declines, and the oracle scanBatch is tested against.
func (s *Server) decodeBatch(w http.ResponseWriter, v *core.ModelView, body []byte, readErr error) (b batch, ok bool) {
	p := &s.classify
	var req batchRequest
	if p.refused(s.bodyStatus(w, decodeJSON(body, readErr, &req, false))) {
		return
	}
	if err := threshold01(req.Threshold); err != nil {
		p.bad(w, "%v", err)
		return
	}
	if len(req.Rows) > 0 && len(req.Columns) > 0 {
		p.bad(w, "request sets both rows and columns; pick one form")
		return
	}
	switch {
	case len(req.Rows) > maxBatchRows:
		p.bad(w, "batch carries %d rows, limit is %d", len(req.Rows), maxBatchRows)
		return
	case len(req.Rows) > 0:
		b = batch{rows: make([][]float64, len(req.Rows)), defaulted: make([][]string, len(req.Rows)), threshold: req.Threshold}
		for i, features := range req.Rows {
			var err error
			if b.rows[i], b.defaulted[i], err = resolveRow(v, features); err != nil {
				p.bad(w, "row %d: %v", i, err)
				return
			}
		}
	case len(req.Columns) > 0:
		rows, def, err := resolveColumns(v, req.Columns)
		if err != nil {
			p.bad(w, "%v", err)
			return
		}
		b = columnsBatch(rows, def, req.Threshold)
	default:
		p.bad(w, "empty batch: set rows or columns")
		return
	}
	return b, true
}

// classifyBatch runs the per-row stage over a materialized batch and
// writes the reply.
func (s *Server) classifyBatch(w http.ResponseWriter, r *http.Request, v *core.ModelView, b batch) {
	fe := flight.From(r.Context())
	start := time.Now()
	s.batchRows.Observe(float64(len(b.rows)))

	// All-or-nothing fan-out of blocks of compile.BlockRows rows, one
	// model call each: rows share the request context, so an expired
	// deadline (or an isolated row panic) fails the whole batch with one
	// error response -- a batch never returns partial results. Each
	// block's wall time goes into the request's wide event as that many
	// rows, across however many goroutines the pool spreads over.
	n := len(b.rows)
	results := make([]classifyResult, n)
	verdicts := make([]core.Verdict, n)
	err := parallel.ForEachCtx(r.Context(), s.batchWorkers, (n+compile.BlockRows-1)/compile.BlockRows, func(ctx context.Context, blk int) error {
		lo := blk * compile.BlockRows
		hi := min(lo+compile.BlockRows, n)
		t := time.Now()
		err := s.classifyBlock(ctx, v, b, lo, hi, verdicts, results)
		fe.Timer().ObserveN(time.Since(t), hi-lo)
		return err
	})
	t := fe.Lap(flight.StageScore, start)
	if err != nil {
		s.rowError(w, r, err)
		return
	}

	sum := batchSummary{Rows: len(results), ByLabel: map[string]int{}}
	for _, res := range results {
		if res.Classified {
			sum.Classified++
			sum.ByLabel[res.Label]++
		} else {
			sum.BelowThreshold++
		}
	}
	s.writeJSON(w, http.StatusOK, batchResponse{
		Results:    results,
		Summary:    sum,
		Generation: v.Generation,
	})
	fe.Lap(flight.StageEncode, t)
}

// classifyBlock scores rows [lo, hi) of a batch in one model call,
// between the classify route's admit and settle run per row in row
// order, and fills their results. A failing row fails the block under
// its own index: an out-of-range error names it, and a panic in its
// admit or settle is isolated as that row's, as when each row was its
// own pool task; one in the model call names the block's first row.
func (s *Server) classifyBlock(ctx context.Context, v *core.ModelView, b batch, lo, hi int, verdicts []core.Verdict, results []classifyResult) (err error) {
	p := &s.classify
	i := lo
	defer func() {
		if rec := recover(); rec != nil {
			err = &parallel.PanicError{Index: i, Value: rec, Stack: debug.Stack()}
		}
	}()
	for ; i < hi; i++ {
		if err := p.admit(ctx); err != nil {
			return err
		}
	}
	i = lo
	start := time.Now()
	v.Model.ClassifyRows(b.rows[lo:hi], b.threshold, verdicts[lo:hi])
	took := time.Since(start) / time.Duration(hi-lo)
	for ; i < hi; i++ {
		res, hit, err := classified(v, b.rows[i], verdicts[i])
		if res, err = p.settle(ctx, b.rows[i], res, hit, err, took); err != nil {
			var oor *outOfRangeError
			if errors.As(err, &oor) {
				oor.row = i
			}
			return err
		}
		res.Defaulted = b.defaulted[i]
		results[i] = res
	}
	return nil
}

// classified is the classify route's result for a row's verdict, with
// finiteProb's refusal of a probability that is no number.
func classified(v *core.ModelView, row []float64, vd core.Verdict) (classifyResult, bool, error) {
	return classifyResult{Label: vd.Label, Probability: vd.Prob, Classified: vd.OK}, vd.OK, finiteProb(v, row, vd.Prob)
}

// reloadRequest is the admin reload body; path may be empty when the
// manager has a configured default (e.g. the -model flag).
type reloadRequest struct {
	Path string `json:"path"`
}

// handleModelReload atomically swaps the serving model for one loaded
// from disk, through the reload circuit breaker. Schema mismatches are
// rejected with 409 and the old model keeps serving; while the breaker
// is open (too many consecutive reload failures) attempts answer 503
// with a Retry-After hint and never touch the manager; in-flight
// requests are never disturbed either way.
func (s *Server) handleModelReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if s.decodeBody(w, r, maxClassifyBody, &req, true) != 0 {
		return
	}
	gen, err := s.ReloadModel(req.Path)
	if err != nil {
		s.log.Warn("model reload failed", "path", req.Path, "err", err)
		s.controlError(w, "model reload", http.StatusBadRequest, err)
		return
	}
	v := s.models.View()
	s.log.Info("model swapped", "generation", gen, "algo", v.Model.Algo, "path", s.models.Path())
	s.writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen,
		"algorithm":  v.Model.Algo,
		"features":   len(v.Model.Features),
	})
}
