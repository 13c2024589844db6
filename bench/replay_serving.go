package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/ml/compile"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/eval"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// layerCounts reports the counts the program keeps on its own public
// surfaces, read after the untraced closed-loop window and before the
// replay adds any traffic of its own.
func (st *servingStack) layerCounts(res *result) {
	res.set("server.ok", sumSeries(st.reg, `http_requests_total{code="200",path="`+st.route+`"}`), 0)
	res.set("server.shed", sumSeries(st.reg, "http_shed_total"), 0)
	res.set("server.timeouts", sumSeries(st.reg, "http_timeouts_total"), 0)
	res.set("server.encode_errors", sumSeries(st.reg, "http_encode_errors_total"), 0)
	fs := st.fl.Stats()
	res.set("obs.flight.observed", float64(fs.Observed), 0)
	res.set("obs.flight.kept", float64(fs.Kept), 0)
	res.set("obs.flight.sampled_out", float64(fs.SampledOut), 0)
	if loop := st.api.Lifecycle(); loop != nil {
		res.set("lifecycle.rows_seen", float64(loop.Status().RowsObserved), 0)
	}
}

// memWriter is an in-memory http.ResponseWriter for direct ServeHTTP
// calls: no socket, no net/http connection handling.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(code int)        { w.status = code }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) reset()                      { w.header, w.status = http.Header{}, 0; w.body.Reset() }

// rawModel is the workload's model trained a second time outside
// JobClassifier, so the harness can reach the layer below it: the
// compiled form where compile.Compile has one, else the interpreted
// ensemble. scale is the standardizer JobClassifier applies per row.
type rawModel struct {
	scale    *stats.Scaler
	compiled compile.Model
	scratch  *compile.Scratch
	interp   eval.ProbClassifier
	spec     map[string]float64 // computed from the public Spec(), not measured
}

func trainRaw(st *servingStack) (*rawModel, error) {
	idx := make([]int, st.in.train.Len())
	for i := range idx {
		idx[i] = i
	}
	work := st.in.train.Subset(idx)
	raw := &rawModel{scale: work.Standardize(), spec: map[string]float64{}}
	cfg := st.w.model(corpusSeed)
	var model any
	var err error
	switch cfg.Algo {
	case core.AlgoForest:
		var m *forest.Classifier
		if m, err = forest.TrainClassifier(work, cfg.Forest); err == nil {
			model = m
			nodes := 0
			for _, t := range m.Spec().Trees {
				nodes += len(t)
			}
			raw.spec["ml.compile.rf_nodes"] = float64(nodes)
		}
	case core.AlgoSVM:
		var m *svm.Model
		if m, err = svm.Train(work, cfg.SVM); err == nil {
			model = m
			svmSpecMetrics(m.Spec(), raw.spec)
		}
	case core.AlgoStack:
		var m *ensemble.Model
		if m, err = ensemble.Train(work, cfg.Stack); err == nil {
			model, raw.interp = m, m
		}
	}
	if err != nil {
		return nil, fmt.Errorf("raw %s model: %w", cfg.Algo, err)
	}
	// The stack has no compiled form today; when "compile the stack"
	// lands this succeeds and ml.compile.* starts reporting for it.
	if cm, err := compile.Compile(model); err == nil {
		raw.compiled, raw.scratch = cm, cm.NewScratch()
	} else if raw.interp == nil {
		return nil, err
	}
	return raw, nil
}

// svmSpecMetrics computes the compiled SVM's per-row work from the
// trained model's public Spec: unique support vectors (the compiler
// shares one kernel value among pairs by exact bit content), pair count,
// and the flops and bytes one classified row touches. Computed, not
// measured.
func svmSpecMetrics(spec *svm.Spec, out map[string]float64) {
	uniq := map[string]bool{}
	entries := 0
	for _, p := range spec.Pairs {
		for _, sv := range p.SV {
			key := make([]byte, 0, 8*len(sv))
			for _, v := range sv {
				bits := math.Float64bits(v)
				for k := 0; k < 8; k++ {
					key = append(key, byte(bits>>(8*k)))
				}
			}
			uniq[string(key)] = true
		}
		entries += len(p.SV)
	}
	u, f := float64(len(uniq)), float64(spec.Features)
	out["ml.compile.svm_unique_svs"] = u
	out["ml.compile.svm_pairs"] = float64(len(spec.Pairs))
	// Per unique vector: a subtract, multiply and add per feature plus the
	// exponential; per (pair, vector) entry: one multiply-add.
	out["ml.compile.svm_flops_per_row"] = u*(3*f+1) + 2*float64(entries)
	// The unique-vector matrix, then an int32 id and a float64
	// coefficient per entry.
	out["ml.compile.svm_bytes_per_row"] = u*f*8 + 12*float64(entries)
}

// predict runs one pre-scaled row through the layer below JobClassifier.
func (m *rawModel) predict(scaled []float64) (int, float64) {
	if m.compiled != nil {
		cls, probs := m.compiled.PredictProb(scaled, m.scratch)
		return cls, probs[cls]
	}
	cls, probs := m.interp.PredictProb(scaled)
	return cls, probs[cls]
}

// resolve mirrors the server's name-to-index resolution through the
// view's public FeatureIndex: per row for the array-of-maps forms, per
// column for the column-major form. Like the server it also lists, per
// row, the model features the request left out.
func resolve(v *core.ModelView, single *classifyRequest, batch *batchRequest) (rows [][]float64, defaulted [][]string) {
	byMap := func(features map[string]float64) ([]float64, []string) {
		row := make([]float64, v.NumFeatures())
		for name, val := range features {
			if idx, ok := v.FeatureIndex(name); ok {
				row[idx] = val
			}
		}
		def := []string{}
		for _, name := range v.Model.Features {
			if _, ok := features[name]; !ok {
				def = append(def, name)
			}
		}
		return row, def
	}
	if single != nil {
		row, def := byMap(single.Features)
		return [][]float64{row}, [][]string{def}
	}
	if len(batch.Rows) > 0 {
		rows, defaulted = make([][]float64, len(batch.Rows)), make([][]string, len(batch.Rows))
		for i, f := range batch.Rows {
			rows[i], defaulted[i] = byMap(f)
		}
		return rows, defaulted
	}
	n := 0
	for _, col := range batch.Columns {
		n = len(col)
		break
	}
	rows, defaulted = make([][]float64, n), make([][]string, n)
	flat := make([]float64, n*v.NumFeatures())
	for i := range rows {
		rows[i] = flat[i*v.NumFeatures() : (i+1)*v.NumFeatures()]
	}
	for name, col := range batch.Columns {
		idx, _ := v.FeatureIndex(name)
		for i, val := range col {
			rows[i][idx] = val
		}
	}
	def := []string{}
	for _, name := range v.Model.Features {
		if _, ok := batch.Columns[name]; !ok {
			def = append(def, name)
		}
	}
	for i := range defaulted {
		defaulted[i] = def
	}
	return rows, defaulted
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rowBuckets are the server's per-row latency histogram buckets (the
// server keeps them private; a lookup of an existing series ignores
// them anyway).
var rowBuckets = []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1}

// replayServing produces the per-layer metrics. The program carries no
// stage timers yet, so the harness replays a fixed sample of the
// workload's own requests from outside, serially, three ways:
//
//	(a) the real round trip over the loopback socket;
//	(b) a direct Server.ServeHTTP call into memory, with the default
//	    batch workers and again on a one-worker twin;
//	(c) the same work layer by layer through each module's public
//	    functions, each call wrapped in a span whose parent is the
//	    one-worker ServeHTTP span it re-performs.
//
// server.self_us is then the one-worker span minus its replayed
// children: what the handler stack spends outside the layers it calls.
func replayServing(res *result, st *servingStack, c *corpus, replays int, rec *recorder) error {
	w := st.w
	raw, err := trainRaw(st)
	if err != nil {
		return err
	}
	twinReg, twinFl := obs.NewRegistry(), flight.NewRecorder(flight.DefaultConfig())
	parallel.Instrument(twinReg)
	twin, err := st.newAPI(c, twinReg, twinFl, 1)
	if err != nil {
		return err
	}
	var probeLoop *lifecycle.Loop
	if w.lifecycle {
		probeLoop, err = lifecycle.New(st.lcCfg, lifecycle.Options{Manager: st.mgr, Baseline: st.lcBase})
		if err != nil {
			return err
		}
	}
	view := st.mgr.View()
	ctx := context.Background()

	serve := func(name, id string, api http.Handler, b int, mw *memWriter) (int, time.Duration, error) {
		req, err := http.NewRequest(http.MethodPost, st.route, bytes.NewReader(st.in.bodies[b]))
		if err != nil {
			return 0, 0, err
		}
		req.Header.Set("X-Request-ID", id)
		mw.reset()
		sp := rec.begin(name, id, 0, w.rows)
		api.ServeHTTP(mw, req)
		d := rec.end(sp)
		if !checkReply(mw.status, mw.body.Bytes(), st.digests[b]) {
			return sp, d, fmt.Errorf("%s of body %d: status %d, reply differs from the verified one", name, b, mw.status)
		}
		return sp, d, nil
	}

	var netUS, selfUS, coverage, classifyAllocs, predictAllocs, reqBytes, respBytes []float64
	var buf []byte
	mw := &memWriter{}
	rawCls, rawProb := make([]int, w.rows), make([]float64, w.rows)
	scaled := make([][]float64, w.rows)
	for i := range scaled {
		scaled[i] = make([]float64, view.NumFeatures())
	}
	for i := 0; i < replays; i++ {
		b := i % len(st.in.bodies)
		id := fmt.Sprintf("replay-%04d", i)
		body := st.in.bodies[b]

		// (a) the real round trip.
		sp := rec.begin("server.roundtrip", id, 0, w.rows)
		status, reply, err := st.post(b, buf, id)
		roundtrip := rec.end(sp)
		buf = reply
		if err != nil || !checkReply(status, reply, st.digests[b]) {
			res.problem("replay %s: round trip failed: status %d: %v", id, status, err)
			continue
		}
		reqBytes, respBytes = append(reqBytes, float64(len(body))), append(respBytes, float64(len(reply)))

		// (b) straight into the handler stack, then its one-worker twin.
		_, direct, err := serve("server.serve_http", id, st.api, b, mw)
		if err != nil {
			res.problem("replay %s: %v", id, err)
			continue
		}
		netUS = append(netUS, float64(roundtrip-direct)/1e3)
		serial, _, err := serve("server.serve_http_serial", id, twin, b, mw)
		if err != nil {
			res.problem("replay %s: %v", id, err)
			continue
		}

		// (c) layer by layer, as children of the one-worker span.
		var single *classifyRequest
		var batch *batchRequest
		sp = rec.begin("server.json_decode", id, serial, w.rows)
		if w.kind == kindSingle {
			single = &classifyRequest{}
			err = json.NewDecoder(bytes.NewReader(body)).Decode(single)
		} else {
			batch = &batchRequest{}
			err = json.NewDecoder(bytes.NewReader(body)).Decode(batch)
		}
		rec.end(sp)
		if err != nil {
			return err
		}

		sp = rec.begin("core.resolve", id, serial, w.rows)
		rows, defaulted := resolve(view, single, batch)
		rec.end(sp)

		results := make([]classifyResult, len(rows))
		m0 := mallocs()
		classify := rec.begin("core.classify", id, serial, len(rows))
		for r, row := range rows {
			label, prob, ok := view.Model.Classify(row, threshold)
			results[r] = classifyResult{Label: label, Probability: prob, Classified: ok, Defaulted: defaulted[r]}
		}
		rec.end(classify)
		classifyAllocs = append(classifyAllocs, float64(mallocs()-m0)/float64(len(rows)))

		for r, row := range rows {
			copy(scaled[r], row)
			raw.scale.Transform(scaled[r])
		}
		name := "ml.compile.predict"
		if raw.compiled == nil {
			name = "ml.ensemble.predict"
		}
		m0 = mallocs()
		sp = rec.begin(name, id, classify, len(rows))
		for r := range rows {
			rawCls[r], rawProb[r] = raw.predict(scaled[r])
		}
		rec.end(sp)
		predictAllocs = append(predictAllocs, float64(mallocs()-m0)/float64(len(rows)))
		for r := range rows {
			if view.Model.Classes()[rawCls[r]] != results[r].Label || math.Float64bits(rawProb[r]) != math.Float64bits(results[r].Probability) {
				res.problem("replay %s row %d: raw model disagrees with JobClassifier.Classify", id, r)
			}
		}

		// The registry work classifyRow does per row, on the twin's
		// registry so the real one is not touched.
		sp = rec.begin("obs.histogram", id, serial, len(rows))
		for range rows {
			start := time.Now()
			twinReg.Histogram("classify_row_seconds", rowBuckets).ObserveDuration(start)
		}
		rec.end(sp)
		sp = rec.begin("obs.counter", id, serial, len(rows))
		for range rows {
			twinReg.Counter("classify_outcomes_total", "outcome", "classified").Inc()
		}
		rec.end(sp)

		if probeLoop != nil {
			sp = rec.begin("lifecycle.observe", id, serial, len(rows))
			for r, row := range rows {
				probeLoop.Observe(ctx, row, results[r].Label)
			}
			rec.end(sp)
		}
		if w.kind != kindSingle {
			sp = rec.begin("parallel.fanout", id, serial, len(rows))
			err = parallel.ForEachCtxTimed(ctx, 1, len(rows), &parallel.Timer{}, func(context.Context, int) error { return nil })
			rec.end(sp)
			if err != nil {
				return err
			}
		}

		sp = rec.begin("obs.flight.record", id, serial, 1)
		t0 := time.Now()
		fe := flight.NewActive(id, http.MethodPost, st.route, t0)
		view.Annotate(fe)
		fe.Finalize(http.StatusOK, time.Since(t0))
		twinFl.Record(fe)
		rec.end(sp)

		mw.reset()
		sp = rec.begin("server.json_encode", id, serial, len(rows))
		if w.kind == kindSingle {
			err = json.NewEncoder(&mw.body).Encode(results[0])
		} else {
			sum := batchSummary{Rows: len(results), ByLabel: map[string]int{}}
			for _, r := range results {
				if r.Classified {
					sum.Classified++
					sum.ByLabel[r.Label]++
				} else {
					sum.BelowThreshold++
				}
			}
			err = json.NewEncoder(&mw.body).Encode(batchResponse{Results: results, Summary: sum, Generation: view.Generation})
		}
		rec.end(sp)
		if err != nil {
			return err
		}
		if !checkReply(http.StatusOK, mw.body.Bytes(), st.digests[b]) {
			res.problem("replay %s: layer-by-layer reply differs from the served one", id)
		}
	}

	self := selfTimes(rec.spans)
	for _, s := range rec.spans {
		if s.Name == "server.serve_http_serial" && s.dur() > 0 {
			selfUS = append(selfUS, float64(self[s.ID])/1e3)
			coverage = append(coverage, 1-float64(self[s.ID])/float64(s.dur()))
		}
	}

	us := func(metric, spanName string) {
		xs := rec.byName(spanName, false)
		res.set(metric, stats.Median(xs)/1e3, len(xs))
	}
	perRow := func(metric, spanName string) {
		xs := rec.byName(spanName, true)
		res.set(metric, stats.Median(xs), len(xs))
	}
	us("server.roundtrip_us", "server.roundtrip")
	us("server.serve_http_us", "server.serve_http")
	us("server.serve_http_serial_us", "server.serve_http_serial")
	us("server.json_decode_us", "server.json_decode")
	us("server.json_encode_us", "server.json_encode")
	res.set("server.net_us", stats.Median(netUS), len(netUS))
	res.set("server.self_us", stats.Median(selfUS), len(selfUS))
	res.set("server.replay_coverage", stats.Median(coverage), len(coverage))
	res.set("server.req_bytes", stats.Median(reqBytes), len(reqBytes))
	res.set("server.resp_bytes", stats.Median(respBytes), len(respBytes))
	perRow("core.resolve_ns_per_row", "core.resolve")
	perRow("core.classify_ns_per_row", "core.classify")
	res.set("core.classify_allocs_per_row", stats.Median(classifyAllocs), len(classifyAllocs))
	compiled := 0.0
	if view.Model.IsCompiled() {
		compiled = 1
	}
	res.set("core.compiled", compiled, 0)
	res.set("core.swap_ms", float64(st.swapDur)/1e6, 1)
	res.set("core.train_ms", float64(st.trainDur)/1e6, 1)
	if raw.compiled != nil {
		perRow("ml.compile.predict_ns_per_row", "ml.compile.predict")
		res.set("ml.compile.allocs_per_row", stats.Median(predictAllocs), len(predictAllocs))
	} else {
		perRow("ml.ensemble.predict_ns_per_row", "ml.ensemble.predict")
	}
	for name, v := range raw.spec {
		res.set(name, v, 0)
	}
	perRow("obs.histogram_lookup_observe_ns", "obs.histogram")
	perRow("obs.counter_lookup_inc_ns", "obs.counter")
	perRow("obs.flight.record_ns", "obs.flight.record")
	if w.kind != kindSingle {
		perRow("parallel.fanout_ns_per_row", "parallel.fanout")
		res.set("parallel.batch_speedup",
			stats.Median(rec.byName("server.serve_http_serial", false))/stats.Median(rec.byName("server.serve_http", false)), replays)
	}
	if probeLoop != nil {
		perRow("lifecycle.observe_ns_per_row", "lifecycle.observe")
		contended := observeContended(probeLoop, st.in.test.X, view.Model.Classes()[0], rec)
		res.set("lifecycle.observe_contended_ns_per_row", stats.Median(contended), len(contended))
	}
	return nil
}

// observeContended calls Loop.Observe from GOMAXPROCS goroutines at
// once, as the batch fan-out does, and returns each goroutine's mean
// cost per row: the serial cost plus the wait for the loop's mutex.
func observeContended(loop *lifecycle.Loop, rows [][]float64, label string, rec *recorder) []float64 {
	const perGoroutine = 4096
	g := runtime.GOMAXPROCS(0)
	starts, durs := make([]time.Time, g), make([]time.Duration, g)
	var wg sync.WaitGroup
	for k := 0; k < g; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ctx := context.Background()
			starts[k] = time.Now()
			for i := 0; i < perGoroutine; i++ {
				loop.Observe(ctx, rows[(k+i)%len(rows)], label)
			}
			durs[k] = time.Since(starts[k])
		}(k)
	}
	wg.Wait()
	out := make([]float64, g)
	for k := range out {
		rec.add("lifecycle.observe_contended", fmt.Sprintf("goroutine-%d", k), starts[k], durs[k])
		out[k] = float64(durs[k]) / perGoroutine
	}
	return out
}
