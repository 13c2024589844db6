// Package loadgen is the seeded open-loop load generator behind
// cmd/supremm-load, the soak harnesses, and manual capacity runs against
// supremm-serve. It drives both of the daemon's wires: Run fires HTTP
// classification traffic (ParseSpec) and ReconcileRecorder joins it
// against the flight recorder; RunIngest replays a seeded firehose on
// the ingest wire (ParseIngestSpec) and ReconcileIngest joins it against
// the conservation ledger. Open-loop means arrivals follow the configured
// schedule regardless of how slowly the server answers -- the only
// honest way to measure shedding and deadline behaviour, since a
// closed loop slows down exactly when the server does and never
// produces the overload it is supposed to study.
//
// Determinism: the arrival schedule is a closed-form function of
// (RPS, Ramp, Duration), and request k's body -- row values, batch or
// single, batch rows -- is derived from rng.Split(k) off the config
// seed. Two runs with the same spec against the same server issue the
// same requests in the same arrival order; only timing and the
// server's admission decisions differ.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/obs/flight"
	"repro/internal/rng"
)

// Report is the JSON artifact of one load run: what was sent, how the
// server disposed of it, and the latency distribution of everything
// that got an answer. The soak job uploads it; the chaos walkthrough
// in EXPERIMENTS.md reads it.
type Report struct {
	Spec     string `json:"spec"`     // canonical config, reproduces the run
	Features int    `json:"features"` // model feature count discovered at start
	Sent     int64  `json:"sent"`     // requests actually issued
	Dropped  int64  `json:"dropped"`  // arrivals skipped at the client in-flight cap

	OK           int64 `json:"ok"`           // 200
	Shed         int64 `json:"shed"`         // 429 (admission control)
	Timeouts     int64 `json:"timeouts"`     // 504 (deadline exceeded)
	Unavailable  int64 `json:"unavailable"`  // 503 (no model / breaker open)
	ServerErrors int64 `json:"serverErrors"` // other 5xx (e.g. isolated panics)
	BadRequests  int64 `json:"badRequests"`  // 4xx other than 429
	ClientErrors int64 `json:"clientErrors"` // transport errors / client-side timeouts

	// ShedWithoutRetryAfter counts 429s missing the Retry-After header
	// -- a violation of the shedding contract, asserted zero by the
	// soak and chaos harnesses.
	ShedWithoutRetryAfter int64 `json:"shedWithoutRetryAfter"`

	ByStatus map[string]int64 `json:"byStatus"`

	DurationSeconds float64 `json:"durationSeconds"`
	AchievedRPS     float64 `json:"achievedRPS"`

	// Latency of answered requests, milliseconds.
	LatencyMS LatencyStats `json:"latencyMS"`

	// Recorder is the flight-recorder reconciliation result, set when
	// the run was cross-checked against the target's /debug/requests
	// ledger (ReconcileRecorder / supremm-load -reconcile).
	Recorder *RecorderCheck `json:"recorder,omitempty"`
}

// LatencyStats summarizes answered-request latency in milliseconds.
type LatencyStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Answered counts responses that carried any HTTP status.
func (r *Report) Answered() int64 {
	return r.OK + r.Shed + r.Timeouts + r.Unavailable + r.ServerErrors + r.BadRequests
}

// arrivalTime returns when (offset from run start) the k-th arrival
// fires. The rate ramps linearly from 0 at t=0 to RPS at t=Ramp, then
// holds; arrivals are the inverse of the cumulative-rate integral, so
// the schedule is exact and deterministic rather than tick-quantized.
func arrivalTime(cfg Config, k int64) time.Duration {
	ramp := cfg.Ramp.Seconds()
	n := float64(k)
	if ramp > 0 {
		inRamp := cfg.RPS * ramp / 2 // arrivals during the whole ramp
		if n < inRamp {
			return time.Duration(math.Sqrt(2*n*ramp/cfg.RPS) * float64(time.Second))
		}
		return time.Duration((ramp + (n-inRamp)/cfg.RPS) * float64(time.Second))
	}
	return time.Duration(n / cfg.RPS * float64(time.Second))
}

// routeSchemas holds the per-route feature schemas discovered at run
// start. The classify schema is always fetched; the discovery schema
// only when dmix drives traffic at /api/discover/assign.
type routeSchemas struct {
	classify []string
	discover []string
}

// buildBody renders arrival k's request body and path. Values are
// derived from the per-arrival RNG stream, so bodies are reproducible
// and distinct across arrivals. One dice roll picks the route -- batch,
// discovery assignment, or single classify in that order -- so a spec
// with dmix=0 issues byte-identical traffic to one that predates it.
func buildBody(cfg Config, sch routeSchemas, k int64) (path string, body []byte) {
	r := rng.New(cfg.Seed).Split(uint64(k))
	row := func(features []string) map[string]float64 {
		m := make(map[string]float64, len(features))
		for _, name := range features {
			m[name] = math.Round(r.Float64()*1e6) / 1e6
		}
		return m
	}
	u := r.Float64()
	switch {
	case u < cfg.BatchMix:
		rows := make([]map[string]float64, cfg.BatchSize)
		for i := range rows {
			rows[i] = row(sch.classify)
		}
		b, _ := json.Marshal(map[string]any{"rows": rows, "threshold": cfg.Threshold})
		return "/api/classify/batch", b
	case u < cfg.BatchMix+cfg.DiscoverMix:
		b, _ := json.Marshal(map[string]any{"features": row(sch.discover)})
		return "/api/discover/assign", b
	}
	b, _ := json.Marshal(map[string]any{"features": row(sch.classify), "threshold": cfg.Threshold})
	return "/api/classify", b
}

// fetchFeatures asks the target for the feature schema served at path
// (a GET endpoint answering a JSON body with a "features" array).
func fetchFeatures(ctx context.Context, client *http.Client, base, path string) ([]string, error) {
	var meta struct {
		Features []string `json:"features"`
	}
	if _, err := getJSON(ctx, client, base+path, &meta); err != nil {
		return nil, fmt.Errorf("%w (model or fit not loaded?)", err)
	}
	if len(meta.Features) == 0 {
		return nil, fmt.Errorf("loadgen: %s reports an empty feature schema", path)
	}
	return meta.Features, nil
}

// discoverSchemas fetches every schema the configured mixes need.
func discoverSchemas(ctx context.Context, client *http.Client, cfg Config) (routeSchemas, error) {
	classify, err := fetchFeatures(ctx, client, cfg.BaseURL, "/api/features")
	if err != nil {
		return routeSchemas{}, err
	}
	sch := routeSchemas{classify: classify, discover: classify}
	if cfg.DiscoverMix > 0 {
		if sch.discover, err = fetchFeatures(ctx, client, cfg.BaseURL, "/api/discover"); err != nil {
			return routeSchemas{}, err
		}
	}
	return sch, nil
}

// Run executes the configured load against cfg.BaseURL and returns the
// report. ctx cancellation stops scheduling new arrivals and waits for
// in-flight requests (bounded by cfg.Timeout).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.MaxInFlight,
			MaxIdleConnsPerHost: cfg.MaxInFlight,
		},
	}
	sch, err := discoverSchemas(ctx, client, cfg)
	if err != nil {
		return nil, err
	}

	rep := &Report{Spec: cfg.Spec(), Features: len(sch.classify), ByStatus: map[string]int64{}}
	var mu sync.Mutex // guards ByStatus and latencies
	var latencies []float64
	var sent, dropped atomic.Int64
	var clientErrs, shedNoRetry atomic.Int64

	inFlight := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()

	fire := func(k int64) {
		defer wg.Done()
		defer func() { <-inFlight }()
		path, body := buildBody(cfg, sch, k)
		req, err := http.NewRequest(http.MethodPost, cfg.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			clientErrs.Add(1)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		sent.Add(1)
		reqStart := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			clientErrs.Add(1)
			return
		}
		lat := time.Since(reqStart)
		// Drain so the connection is reusable.
		var sink [512]byte
		for {
			if _, err := resp.Body.Read(sink[:]); err != nil {
				break
			}
		}
		resp.Body.Close()

		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			shedNoRetry.Add(1)
		}
		mu.Lock()
		rep.ByStatus[strconv.Itoa(resp.StatusCode)]++
		latencies = append(latencies, lat.Seconds()*1e3)
		mu.Unlock()
	}

	for k := int64(0); ; k++ {
		at := arrivalTime(cfg, k)
		if at >= cfg.Duration {
			break
		}
		if d := time.Until(start.Add(at)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		select {
		case inFlight <- struct{}{}:
			wg.Add(1)
			go fire(k)
		default:
			dropped.Add(1) // open loop: never block the schedule
		}
	}
	wg.Wait()

	rep.Sent, rep.Dropped = sent.Load(), dropped.Load()
	rep.ClientErrors = clientErrs.Load()
	rep.ShedWithoutRetryAfter = shedNoRetry.Load()
	// The per-class counters are sums over ByStatus.
	for status, n := range rep.ByStatus {
		switch code, _ := strconv.Atoi(status); {
		case code == http.StatusOK:
			rep.OK += n
		case code == http.StatusTooManyRequests:
			rep.Shed += n
		case code == http.StatusGatewayTimeout:
			rep.Timeouts += n
		case code == http.StatusServiceUnavailable:
			rep.Unavailable += n
		case code >= 500:
			rep.ServerErrors += n
		default:
			rep.BadRequests += n
		}
	}
	rep.DurationSeconds = time.Since(start).Seconds()
	if rep.DurationSeconds > 0 {
		rep.AchievedRPS = float64(rep.Sent) / rep.DurationSeconds
	}
	rep.LatencyMS = summarize(latencies)
	return rep, nil
}

// RecorderCheck is the result of joining a load run's client-observed
// status counts against the target flight recorder's ledger. The
// recorder counts observed events per route and status independently of
// tail sampling, so when the client saw every response
// (ClientErrors == 0) the join must be exact -- any drift means a
// request the middleware never finalized or counted twice.
type RecorderCheck struct {
	// Observed / Kept / SampledOut / Evicted echo the recorder's global
	// ledger at reconciliation time (Observed == Kept + SampledOut).
	Observed   uint64 `json:"observed"`
	Kept       uint64 `json:"kept"`
	SampledOut uint64 `json:"sampledOut"`
	Evicted    uint64 `json:"evicted"`
	// ByStatus is the recorder's driven-route event count per status.
	ByStatus map[string]uint64 `json:"byStatus"`
	// ShadowRows / ShadowAgree echo the recorder's shadow-scoring
	// tallies; Lifecycle carries the loop's own ledger when the target
	// has the closed loop armed (nil otherwise). The two books are kept
	// independently — the loop counts as it scores, the recorder sums
	// per-request wide events — so their exact agreement is asserted.
	ShadowRows  uint64            `json:"shadowRows,omitempty"`
	ShadowAgree uint64            `json:"shadowAgree,omitempty"`
	Lifecycle   *lifecycle.Ledger `json:"lifecycle,omitempty"`
	// Mismatches lists every reconciliation failure; empty means the
	// ledger agreed exactly with the client-observed counts. Any entry
	// fails the run.
	Mismatches []string `json:"mismatches"`
	// Skipped says why the client-side joins were not made (the run saw
	// transport errors); the ledger's own balance is checked regardless.
	Skipped string `json:"skipped,omitempty"`
}

// drivenRoutes are the routes the load generator drives; the
// reconciliation join is restricted to them so the recorder's view of
// other traffic (the schema discovery calls, scrapes) stays out of the
// comparison.
var drivenRoutes = []string{"/api/classify", "/api/classify/batch", "/api/discover/assign"}

// debugRequests fetches the target's /debug/requests with the given
// query string.
func debugRequests(ctx context.Context, client *http.Client, base, query string) (flight.Stats, int, error) {
	var out struct {
		Stats   flight.Stats `json:"stats"`
		Matched int          `json:"matched"`
	}
	if _, err := getJSON(ctx, client, base+"/debug/requests?"+query, &out); err != nil {
		return flight.Stats{}, 0, fmt.Errorf("%w (flight recorder not armed?)", err)
	}
	return out.Stats, out.Matched, nil
}

// drivenByStatus sums the recorder's driven-route counts per status.
func drivenByStatus(st flight.Stats) map[string]uint64 {
	sum := map[string]uint64{}
	for _, route := range drivenRoutes {
		for status, n := range st.ByRoute[route] {
			sum[status] += n
		}
	}
	return sum
}

// ReconcileRecorder joins rep against the flight recorder at base and
// fills rep.Recorder. The server files a request's wide event after the
// response body is written, so the client's counts can briefly lead the
// ledger; reconciliation polls until the recorder has observed at least
// as many driven-route events as the client got answers (or ctx
// expires),
// then asserts:
//
//   - the ledger balances: Observed == Kept + SampledOut and
//     Kept == Live + Evicted;
//   - per status code, the recorder observed exactly as many driven
//     responses as the client received;
//   - every error-class response (status >= 400) is retrievable from
//     the ring, provided nothing was evicted during the run.
//
// An exact join requires the client to have seen every response; when
// rep.ClientErrors > 0 some answers died on the wire, and requests whose
// client gave up can still be scoring, so the per-status, ring and
// shadow-book joins are skipped and the reason is left in Skipped. The
// ledger's balance is a server-side invariant and is checked either way.
func ReconcileRecorder(ctx context.Context, base string, rep *Report) (*RecorderCheck, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	answered := uint64(rep.Answered())

	var st flight.Stats
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _, err = debugRequests(ctx, client, base, "limit=0")
		if err != nil {
			return nil, err
		}
		var total uint64
		for _, n := range drivenByStatus(st) {
			total += n
		}
		if total >= answered || time.Now().After(deadline) || ctx.Err() != nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	chk := &RecorderCheck{
		Observed:   st.Observed,
		Kept:       st.Kept,
		SampledOut: st.SampledOut,
		Evicted:    st.Evicted,
		ByStatus:   drivenByStatus(st),
		Mismatches: []string{},
	}
	flag := func(format string, args ...any) {
		chk.Mismatches = append(chk.Mismatches, fmt.Sprintf(format, args...))
	}

	if err := st.Check(); err != nil {
		flag("%v", err)
	}

	if rep.ClientErrors > 0 {
		chk.Skipped = fmt.Sprintf("client-side joins: %d client-side errors mean the client missed responses the server recorded", rep.ClientErrors)
		rep.Recorder = chk
		return chk, nil
	}

	// Exact per-status join: the union of statuses either side saw.
	statuses := map[string]bool{}
	for status := range rep.ByStatus {
		statuses[status] = true
	}
	for status := range chk.ByStatus {
		statuses[status] = true
	}
	for status := range statuses {
		clientN := uint64(rep.ByStatus[status])
		if got := chk.ByStatus[status]; got != clientN {
			flag("status %s: recorder observed %d driven events, client received %d", status, got, clientN)
		}
	}

	// Tail-sampling contract: error-class responses are never sampled
	// out, so with no evictions every one must be retrievable.
	if st.Evicted == 0 {
		for status, clientN := range rep.ByStatus {
			if status < "400" || clientN == 0 { // statuses are 3-digit strings; lexicographic works
				continue
			}
			// The route filter is a prefix match, so "/api/classify"
			// covers the single and batch endpoints in one query; the
			// discovery route is queried exactly.
			var matched int64
			for _, route := range []string{"/api/classify", "/api/discover/assign"} {
				_, m, err := debugRequests(ctx, client, base, "limit=0&status="+status+"&route="+route)
				if err != nil {
					return nil, err
				}
				matched += int64(m)
			}
			if matched != clientN {
				flag("status %s: only %d of %d error events retrievable from the ring", status, matched, clientN)
			}
		}
	}

	// Shadow-scoring reconciliation: when the target has the lifecycle
	// loop armed, its ledger must balance and agree exactly with the
	// flight recorder's independently-summed shadow tallies. A 503
	// means the loop is off; that is not a mismatch.
	chk.ShadowRows, chk.ShadowAgree = st.ShadowRows, st.ShadowAgree
	var lc lifecycle.Status
	if status, err := getJSON(ctx, client, base+"/api/lifecycle", &lc); err == nil {
		lg := lc.Ledger
		chk.Lifecycle = &lg
		if err := lg.Check(); err != nil {
			flag("%v", err)
		}
		if st.ShadowRows != lg.Scored || st.ShadowAgree != lg.Agree {
			flag("shadow books disagree: recorder rows=%d agree=%d, lifecycle ledger scored=%d agree=%d",
				st.ShadowRows, st.ShadowAgree, lg.Scored, lg.Agree)
		}
	} else if status != http.StatusServiceUnavailable {
		flag("lifecycle ledger unavailable: %v", err)
	} else if st.ShadowRows != 0 {
		flag("recorder saw %d shadow-scored rows but the target reports no lifecycle loop", st.ShadowRows)
	}

	rep.Recorder = chk
	return chk, nil
}

// summarize computes the latency stats from raw millisecond samples.
func summarize(ms []float64) LatencyStats {
	if len(ms) == 0 {
		return LatencyStats{}
	}
	sort.Float64s(ms)
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	pct := func(q float64) float64 {
		i := int(q * float64(len(ms)-1))
		return ms[i]
	}
	return LatencyStats{
		Count: int64(len(ms)),
		Mean:  sum / float64(len(ms)),
		P50:   pct(0.50),
		P90:   pct(0.90),
		P99:   pct(0.99),
		Max:   ms[len(ms)-1],
	}
}
