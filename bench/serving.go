package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/stats"
)

// servingStack is one booted instance of the classification API: the
// real handler stack of supremm-serve behind net/http on a loopback
// socket, plus the harness's client and its books on what it sent.
type servingStack struct {
	w   *workload
	in  *servingInputs
	reg *obs.Registry
	fl  *flight.Recorder
	mgr *core.ModelManager
	api *server.Server

	model    *core.JobClassifier
	trainDur time.Duration
	swapAt   time.Time
	swapDur  time.Duration

	lcCfg  lifecycle.Config // set when the workload arms the lifecycle loop
	lcBase *lifecycle.Baseline

	hs      *http.Server
	served  chan error
	route   string
	url     string
	client  *http.Client
	digests []uint64 // FNV-1a of the verified reply to each distinct body

	sent   atomic.Int64 // requests handed to this instance's listener
	okReqs atomic.Int64
	okRows atomic.Int64
}

// bootServing trains the workload's model and boots the stack the way
// cmd/supremm-serve does: registry with pool instrumentation, compiled
// install through ModelManager.Swap, 30 s request deadline, admission
// control off, flight recorder at its default config. workers <= 0 is
// the server default (GOMAXPROCS batch workers).
func bootServing(c *corpus, w *workload, in *servingInputs, workers int) (*servingStack, error) {
	st := &servingStack{w: w, in: in, reg: obs.NewRegistry()}
	parallel.Instrument(st.reg)

	t0 := time.Now()
	model, err := core.TrainJobClassifier(in.train, w.model(corpusSeed))
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	st.model, st.trainDur = model, time.Since(t0)

	st.mgr = core.NewModelManager(st.reg)
	st.swapAt = time.Now()
	if _, err := st.mgr.Swap(model); err != nil {
		return nil, fmt.Errorf("swap: %w", err)
	}
	st.swapDur = time.Since(st.swapAt)

	if w.lifecycle {
		// Armed but never acting: auto=false and no trainer, with both
		// alarm levels at the validator's ceiling so the drift statistic
		// is computed every `every` rows for the whole window. A drift
		// alarm would park the loop in "drifting", where it stops
		// evaluating PSI, and the workload would change under the
		// measurement.
		st.lcCfg = lifecycle.DefaultConfig()
		st.lcCfg.Auto, st.lcCfg.Seed = false, corpusSeed
		st.lcCfg.DriftThreshold, st.lcCfg.PosteriorThreshold = 100, 100
		if st.lcBase, err = lifecycle.BaselineFor(in.train, model, st.lcCfg.Bins); err != nil {
			return nil, fmt.Errorf("lifecycle baseline: %w", err)
		}
	}
	st.fl = flight.NewRecorder(flight.DefaultConfig())
	if st.api, err = st.newAPI(c, st.reg, st.fl, workers); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.hs = &http.Server{Handler: st.api}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.route = "/api/classify/batch"
	if w.kind == kindSingle {
		st.route = "/api/classify"
	}
	st.url = "http://" + ln.Addr().String() + st.route
	st.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns(), DisableCompression: true,
	}}
	return st, nil
}

// newAPI builds the handler stack over the stack's model manager. The
// traced replay calls it a second time for a one-worker twin with its
// own registry and recorder, so probing never disturbs the real books.
func (st *servingStack) newAPI(c *corpus, reg *obs.Registry, fl *flight.Recorder, workers int) (*server.Server, error) {
	opts := []server.Option{
		server.WithMetrics(reg),
		server.WithLogger(obs.NewLogger(io.Discard, obs.LevelInfo)),
		server.WithModelManager(st.mgr),
		server.WithBatchWorkers(workers),
		server.WithResilience(server.ResilienceConfig{RequestTimeout: 30 * time.Second}),
		server.WithFlightRecorder(fl),
	}
	if st.w.lifecycle {
		opts = append(opts, server.WithLifecycle(st.lcCfg, lifecycle.Options{Baseline: st.lcBase}))
	}
	api := server.New(c.store, nil, c.nodes, opts...)
	if st.w.lifecycle && api.Lifecycle() == nil {
		return nil, fmt.Errorf("lifecycle loop was rejected")
	}
	return api, nil
}

// close stops the listener and waits for the serve goroutine.
func (st *servingStack) close() error {
	st.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// post sends body b and returns the reply's status and bytes. The reply
// is read into buf (grown as needed and returned for reuse), so the
// timed loop allocates nothing per request on the client's read side.
func (st *servingStack) post(b int, buf []byte, reqID string) (status int, reply []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, st.url, bytes.NewReader(st.in.bodies[b]))
	if err != nil {
		return 0, buf, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	st.sent.Add(1)
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, buf, err
	}
	defer resp.Body.Close()
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, rerr := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if rerr == io.EOF {
			return resp.StatusCode, buf, nil
		}
		if rerr != nil {
			return resp.StatusCode, buf, rerr
		}
	}
}

// checkReply is the timed loop's oracle: a reply counts only if it is a
// 200 whose bytes hash to the digest verified during set-up.
func checkReply(status int, reply []byte, want uint64) bool {
	return status == http.StatusOK && fnv64(reply) == want
}

// verifyReplies is the set-up oracle. Each distinct body is sent once;
// the parsed reply must equal, field for field and bit for bit, what
// JobClassifier.Classify says about the same held-out rows. The reply
// bytes' digest is kept for the timed loop. It returns one message per
// mismatching body.
func (st *servingStack) verifyReplies() (problems []string) {
	direct := map[int]classifyResult{}
	want := func(row int) classifyResult {
		r, ok := direct[row]
		if !ok {
			label, prob, classified := st.model.Classify(st.in.test.X[row], threshold)
			r = classifyResult{Label: label, Probability: prob, Classified: classified}
			direct[row] = r
		}
		return r
	}
	st.digests = make([]uint64, len(st.in.bodies))
	var buf []byte
	for b := range st.in.bodies {
		status, reply, err := st.post(b, buf, "")
		buf = reply
		if err != nil || status != http.StatusOK {
			problems = append(problems, fmt.Sprintf("body %d: status %d: %v", b, status, err))
			continue
		}
		st.digests[b] = fnv64(reply)
		var got []classifyResult
		if st.w.kind == kindSingle {
			var one classifyResult
			err = json.Unmarshal(reply, &one)
			got = []classifyResult{one}
		} else {
			var batch batchResponse
			err = json.Unmarshal(reply, &batch)
			got = batch.Results
			if err == nil && (batch.Summary.Rows != len(got) || batch.Generation != st.mgr.Generation()) {
				err = fmt.Errorf("summary rows %d, generation %d", batch.Summary.Rows, batch.Generation)
			}
		}
		if err == nil {
			err = equalResults(got, st.in.bodyRows[b], want)
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("body %d: %v", b, err))
			continue
		}
		st.okReqs.Add(1)
		st.okRows.Add(int64(len(got)))
	}
	return problems
}

// equalResults compares served rows with the direct classification of
// the same rows: label, classified flag and the probability's bits.
func equalResults(got []classifyResult, rows []int, want func(int) classifyResult) error {
	if len(got) != len(rows) {
		return fmt.Errorf("%d results for %d rows", len(got), len(rows))
	}
	for i, g := range got {
		w := want(rows[i])
		if g.Label != w.Label || g.Classified != w.Classified ||
			math.Float64bits(g.Probability) != math.Float64bits(w.Probability) || len(g.Defaulted) != 0 {
			return fmt.Errorf("row %d: served %+v, direct classify %+v", i, g, w)
		}
	}
	return nil
}

// sample is one completed request of the timed loop.
type sample struct {
	start, end float64 // seconds since the window opened
	ok         bool
}

// drive runs the closed loop for d: conns() clients, each sending its
// next request only when the previous reply has been read and checked.
func (st *servingStack) drive(d time.Duration) []sample {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < conns(); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var buf []byte
			var mine []sample
			for b := k; time.Since(start) < d; b += conns() {
				i := b % len(st.in.bodies)
				t0 := time.Now()
				status, reply, err := st.post(i, buf, "")
				t1 := time.Now()
				buf = reply
				ok := err == nil && checkReply(status, reply, st.digests[i])
				if ok {
					st.okReqs.Add(1)
					st.okRows.Add(int64(st.w.rows))
				}
				mine = append(mine, sample{start: t0.Sub(start).Seconds(), end: t1.Sub(start).Seconds(), ok: ok})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	return all
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the process's resident set in MB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssWatch reports the peak resident set of the system under test: it
// hands the input generator's garbage back to the OS first, then samples
// the resident set every 20 ms until stopped. (VmHWM would also hold the
// generator's own peak, which belongs to the harness and varies with the
// seed.)
func rssWatch() (stop func() float64) {
	debug.FreeOSMemory()
	peak := rssMB()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				peak = math.Max(peak, rssMB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return math.Max(peak, rssMB())
	}
}

// cpuSlices records the process's CPU time at each 1-second boundary of
// a window opening now and returns the CPU spent in each full slice once
// the window has run.
func cpuSlices(slices int) (wait func() []time.Duration) {
	marks := make([]time.Duration, slices+1)
	done := make(chan struct{})
	start := time.Now()
	marks[0] = cpuTime()
	go func() {
		defer close(done)
		for i := 1; i <= slices; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second)))
			marks[i] = cpuTime()
		}
	}()
	return func() []time.Duration {
		<-done
		out := make([]time.Duration, slices)
		for i := range out {
			out[i] = marks[i+1] - marks[i]
		}
		return out
	}
}

// runServing runs one serving workload: seeded inputs, timed set-ups
// (train, compile-on-swap, boot, every distinct body verified), warm-up,
// then the measured closed-loop window cut into 1-second slices.
func runServing(res *result, w *workload, c *corpus, seed uint64, seconds int, sc scale, rec *recorder) error {
	in, err := genServing(c, w, seed)
	if err != nil {
		return err
	}

	peakRSS := rssWatch()

	var st *servingStack
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if st, err = bootServing(c, w, in, 0); err != nil {
			return err
		}
		problems := st.verifyReplies()
		setups = append(setups, time.Since(t0).Seconds())
		res.Attempted += int64(len(in.bodies))
		for _, p := range problems {
			res.problem("set-up %d: %s", i, p)
			res.Failed++
		}
	}
	defer st.close()
	rec.add("core.train", "setup", st.swapAt.Add(-st.trainDur), st.trainDur)
	rec.add("core.swap", "setup", st.swapAt, st.swapDur)

	st.drive(sc.warmup)
	cpu := cpuSlices(seconds)
	samples := st.drive(time.Duration(seconds) * time.Second)

	// Every request the loop issued counts. One still in flight when the
	// window closed is credited to the slices by its overlap with them, so
	// the last slice is not short of the work done in it.
	var starts, ends, lats []float64
	var items []int
	for _, s := range samples {
		res.Attempted++
		if !s.ok {
			res.Failed++
			continue
		}
		starts, ends, items = append(starts, s.start), append(ends, s.end), append(items, w.rows)
		lats = append(lats, (s.end-s.start)*1e3) // round trip in ms: send to body fully read
	}
	st.checkBooks(res)

	rss := peakRSS()
	if rec != nil {
		st.layerCounts(res)
		res.set("server.lat_tail_ms", percentile(lats, w.tail), len(lats))
		replays := w.replay
		if sc.replay > 0 {
			replays = min(replays, sc.replay)
		}
		return replayServing(res, st, c, replays, rec)
	}
	// Throughput and CPU cost are medians over the window's 1-second
	// slices (client included in the CPU, identically on both sides of
	// any comparison).
	perSlice := sliceItems(starts, ends, items, seconds)
	var cpuPerItem []float64
	for i, d := range cpu() {
		if perSlice[i] > 0 {
			cpuPerItem = append(cpuPerItem, float64(d)/1e3/perSlice[i])
		}
	}
	res.set("setup_s", stats.Median(setups), len(setups))
	res.set("items_per_s", stats.Median(perSlice), seconds)
	res.set("lat_p50_ms", stats.Median(lats), len(lats))
	res.set("cpu_us_per_item", stats.Median(cpuPerItem), len(cpuPerItem))
	res.set("peak_rss_mb", rss, 0)
	return nil
}

// sumSeries sums the registry's series with the given rendered name, or,
// for a bare family name, every labelled series of that family.
func sumSeries(reg *obs.Registry, name string) float64 {
	sum := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name == name || strings.HasPrefix(s.Name, name+"{") {
			sum += s.Value
		}
	}
	return sum
}

// checkBooks reconciles what the harness sent with what the program's
// public surfaces say it saw. Any difference is an incorrect run.
func (st *servingStack) checkBooks(res *result) {
	sent := uint64(st.sent.Load())
	if fs := st.fl.Stats(); fs.Observed != sent || fs.Kept+fs.SampledOut != fs.Observed {
		res.problem("flight recorder observed %d (kept %d + sampled out %d), harness sent %d",
			fs.Observed, fs.Kept, fs.SampledOut, sent)
	}
	if ok := sumSeries(st.reg, `http_requests_total{code="200",path="`+st.route+`"}`); ok != float64(st.okReqs.Load()) {
		res.problem("server counted %v 200s on %s, harness verified %d", ok, st.route, st.okReqs.Load())
	}
	if loop := st.api.Lifecycle(); loop != nil {
		ls := loop.Status()
		if ls.RowsObserved != uint64(st.okRows.Load()) {
			res.problem("lifecycle observed %d rows, harness verified %d", ls.RowsObserved, st.okRows.Load())
		}
		if ls.DriftEvents != 0 || ls.State != lifecycle.StateStable {
			res.problem("lifecycle left the stable state (%s, %d drift events)", ls.State, ls.DriftEvents)
		}
	}
}
