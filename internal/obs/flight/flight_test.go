package flight

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// record builds a finalized event and lands it in rec: one call stands
// in for the middleware's NewActive -> Finalize -> Record sequence.
func record(rec *Recorder, path string, status int, dur time.Duration) {
	a := NewActive("id", "POST", path, time.Unix(1000, 0))
	a.Finalize(status, dur)
	rec.Record(a)
}

func TestLedgerInvariantsUnderMixedTraffic(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 32})
	for i := 0; i < 500; i++ {
		switch i % 10 {
		case 0:
			record(rec, "/api/classify", 429, time.Millisecond)
		case 1:
			record(rec, "/api/classify", 504, time.Millisecond)
		case 2:
			record(rec, "/api/classify/batch", 500, time.Millisecond)
		default:
			record(rec, "/api/classify", 200, time.Duration(i)*time.Microsecond)
		}
	}
	st := rec.Stats()
	if st.Observed != 500 {
		t.Fatalf("observed %d, recorded 500", st.Observed)
	}
	if err := st.Check(); err != nil {
		t.Error(err)
	}
	var byRouteTotal uint64
	for _, byStatus := range st.ByRoute {
		for _, n := range byStatus {
			byRouteTotal += n
		}
	}
	if byRouteTotal != st.Observed {
		t.Errorf("ByRoute sums to %d, observed %d", byRouteTotal, st.Observed)
	}
	if got := st.ByRoute["/api/classify"]["429"]; got != 50 {
		t.Errorf("ByRoute[/api/classify][429] = %d, want 50", got)
	}
	if got := st.ByRoute["/api/classify/batch"]["500"]; got != 50 {
		t.Errorf("ByRoute[/api/classify/batch][500] = %d, want 50", got)
	}
}

// TestErrorsNeverEvictedByOKFlood is the tail-sampling acceptance
// invariant: error events must never be evicted in favour of OK events,
// no matter how much healthy traffic follows them. The split-ring design
// makes this structural: OK events can only ever evict OK events.
func TestErrorsNeverEvictedByOKFlood(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 16})
	for i := 0; i < 5; i++ {
		record(rec, "/api/classify", 504, time.Millisecond)
	}
	// Flood: 10_000 healthy events, all kept (each slower than the last,
	// so each ranks in the latency top-K), into an 8-slot OK sub-ring.
	// Every eviction must hit an OK event.
	for i := 0; i < 10000; i++ {
		record(rec, "/api/classify", 200, time.Duration(i)*time.Nanosecond)
	}
	events, matched := rec.Query(Filter{Status: 504, Limit: -1})
	if matched != 5 || len(events) != 5 {
		t.Fatalf("after OK flood, %d of 5 error events retrievable", matched)
	}
	for _, ev := range events {
		if ev.KeepReason != KeepError {
			t.Errorf("error event kept for %q, want %q", ev.KeepReason, KeepError)
		}
	}
	// And the converse: an error storm must not evict the latency top-K
	// beyond the OK sub-ring's own churn (errors only evict errors).
	okBefore, _ := rec.Query(Filter{Status: 200, Limit: -1})
	for i := 0; i < 1000; i++ {
		record(rec, "/api/classify", 500, time.Millisecond)
	}
	okAfter, _ := rec.Query(Filter{Status: 200, Limit: -1})
	if len(okAfter) != len(okBefore) {
		t.Errorf("error storm changed the OK population: %d -> %d", len(okBefore), len(okAfter))
	}
}

func TestCounterSamplingKeepsExactlyOneInN(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 512})
	// Fill the latency top-K with slow events, so the faster healthy
	// traffic below reaches the counter sampler and nothing else.
	for i := 0; i < topK; i++ {
		record(rec, "/api/classify", 200, time.Second)
	}
	filled := rec.Stats().Kept
	// Errors interleaved with the healthy stream always land.
	const n = 100 * sampleEvery
	for i := 0; i < n; i++ {
		record(rec, "/api/classify", 200, time.Millisecond)
		if i%sampleEvery == 0 {
			record(rec, "/api/classify", 500, time.Millisecond)
		}
	}
	st := rec.Stats()
	if got := st.Kept - filled; got != 200 {
		t.Errorf("kept %d of %d healthy at 1-in-%d plus 100 errors, want 200", got, n, sampleEvery)
	}
	if st.SampledOut != n-100 {
		t.Errorf("sampledOut %d, want %d", st.SampledOut, n-100)
	}
}

func TestLatencyTopKKeepsSlowRequests(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 256})
	// Ascending latencies: each new event beats the heap minimum, so
	// every one is kept as "slow" -- past the top-K's size too.
	const n = topK + 10
	for i := 1; i <= n; i++ {
		record(rec, "/api/classify", 200, time.Duration(i)*time.Millisecond)
	}
	events, _ := rec.Query(Filter{Outcome: OutcomeOK, Limit: -1})
	slow := 0
	for _, ev := range events {
		if ev.KeepReason == KeepSlow {
			slow++
		}
	}
	if slow != n {
		t.Errorf("ascending latencies: %d kept slow, want all %d", slow, n)
	}
	// Now a burst of fast events, one short of the sampling period: none
	// rank, none kept.
	before := rec.Stats().Kept
	for i := 0; i < sampleEvery-1; i++ {
		record(rec, "/api/classify", 200, time.Microsecond)
	}
	if got := rec.Stats().Kept; got != before {
		t.Errorf("fast events below the top-K floor were kept: %d -> %d", before, got)
	}
	// MinDuration filter sees only the slow tail.
	const floor = (n - 2) * time.Millisecond
	_, matched := rec.Query(Filter{MinDuration: floor, Limit: -1})
	if matched != 3 {
		t.Errorf("MinDuration %v matched %d, want 3", floor, matched)
	}
}

func TestQueryFilters(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 128})
	t0 := time.Unix(1000, 0)
	push := func(path string, status int, at time.Time) {
		a := NewActive("id", "POST", path, at)
		a.Finalize(status, 5*time.Millisecond)
		rec.Record(a)
	}
	push("/api/classify", 200, t0)
	push("/api/classify/batch", 200, t0.Add(time.Second))
	push("/api/classify", 429, t0.Add(2*time.Second))
	push("/api/classify/batch", 504, t0.Add(3*time.Second))
	push("/admin/model/reload", 503, t0.Add(4*time.Second))

	if _, m := rec.Query(Filter{Route: "/api/classify", Limit: -1}); m != 4 {
		t.Errorf("route prefix /api/classify matched %d, want 4 (single + batch)", m)
	}
	if _, m := rec.Query(Filter{Status: 429, Limit: -1}); m != 1 {
		t.Errorf("status 429 matched %d, want 1", m)
	}
	if _, m := rec.Query(Filter{Outcome: OutcomeTimeout, Limit: -1}); m != 1 {
		t.Errorf("outcome timeout matched %d, want 1", m)
	}
	if _, m := rec.Query(Filter{Since: t0.Add(2 * time.Second), Limit: -1}); m != 3 {
		t.Errorf("since t0+2s matched %d, want 3", m)
	}
	// Limit trims to the most recent matches but reports the full count.
	events, m := rec.Query(Filter{Limit: 2})
	if m != 5 || len(events) != 2 {
		t.Fatalf("limit 2: got %d events, matched %d; want 2 of 5", len(events), m)
	}
	if events[0].Seq >= events[1].Seq {
		t.Error("events not in Seq order")
	}
	if events[1].Status != 503 {
		t.Errorf("limit kept the oldest matches, want the most recent (got status %d last)", events[1].Status)
	}
	// Limit 0 is count-only.
	events, m = rec.Query(Filter{Limit: 0})
	if events != nil || m != 5 {
		t.Errorf("limit 0: events=%v matched=%d, want nil/5", events, m)
	}
}

func TestSLOBurnRateWindows(t *testing.T) {
	now := time.Unix(10_000, 0)
	clock := func() time.Time { return now }
	// Availability budget 0.001: burn = badRate * 1000. Latency budget
	// 0.01: burn = slowRate * 100.
	rec := NewRecorder(Config{Capacity: 64, Clock: clock})
	// Second 1: 8 fast 200s + 2 500s -> badRate 0.2, availability burn 200.
	for i := 0; i < 8; i++ {
		record(rec, "/api/classify", 200, time.Millisecond)
	}
	record(rec, "/api/classify", 500, time.Millisecond)
	record(rec, "/api/classify", 500, time.Millisecond)
	// Ungoverned routes must not count toward the objectives.
	record(rec, "/metrics", 500, time.Millisecond)

	st := rec.SLOStatus()
	if st == nil || st.Availability == nil || st.Latency == nil {
		t.Fatal("SLOStatus missing objectives")
	}
	short := st.Availability.Windows[0]
	if short.Total != 10 || short.Bad != 2 {
		t.Fatalf("short window total=%d bad=%d, want 10/2 (the /metrics 500 must not count)", short.Total, short.Bad)
	}
	if got := short.BurnRate; got < 199.9 || got > 200.1 {
		t.Errorf("availability burn %v, want 200", got)
	}
	// Two slow 200s out of 10 measured: slowRate 0.2, latency burn 20.
	record(rec, "/api/classify", 200, 600*time.Millisecond)
	record(rec, "/api/classify", 200, 600*time.Millisecond)
	st = rec.SLOStatus()
	lat := st.Latency.Windows[0]
	if lat.Total != 10 || lat.Bad != 2 {
		t.Fatalf("latency window measured=%d slow=%d, want 10/2", lat.Total, lat.Bad)
	}
	if got := lat.BurnRate; got < 19.99 || got > 20.01 {
		t.Errorf("latency burn %v, want 20", got)
	}

	// Advance past the short window: its burn drains to zero while the
	// longer windows still remember.
	now = now.Add(90 * time.Second)
	st = rec.SLOStatus()
	if got := st.Availability.Windows[0].Total; got != 0 {
		t.Errorf("1m window still holds %d events after 90s", got)
	}
	if got := st.Availability.Windows[1].Bad; got != 2 {
		t.Errorf("5m window lost the failures: bad=%d, want 2", got)
	}
	// Past the longest window every window is empty; the run remembers.
	now = now.Add(time.Hour)
	st = rec.SLOStatus()
	for _, w := range st.Availability.Windows {
		if w.Total != 0 {
			t.Errorf("%s window still holds %d events after 1h", w.Window, w.Total)
		}
	}
	if st.Availability.RunBad != 2 || st.Availability.RunTotal != 12 {
		t.Errorf("run totals bad=%d total=%d, want 2/12", st.Availability.RunBad, st.Availability.RunTotal)
	}
}

func TestSLOBurnTriggersBundleCapture(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(50_000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	rec := NewRecorder(Config{Capacity: 64, Clock: clock, Bundle: BundleConfig{Dir: dir}})
	// One failure among 20 requests in the 1m window: badRate 0.05 burns
	// 50x the 0.1% budget, over the 10x threshold.
	for i := 0; i < minWindowTotal-1; i++ {
		record(rec, "/api/classify", 200, time.Millisecond)
	}
	record(rec, "/api/classify", 500, time.Millisecond)
	// TriggerBundle captures asynchronously; poll for the bundle dir.
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) > 0 {
			if !strings.Contains(entries[0].Name(), "slo_burn_availability") {
				t.Errorf("bundle dir %q does not carry the burn reason", entries[0].Name())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no bundle captured within 5s of an SLO burn")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBundleCaptureContentsAndRateLimit(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	reg.Counter("x_total").Inc()
	now := time.Unix(50_000, 0)
	rec := NewRecorder(Config{
		Capacity: 64,
		Clock:    func() time.Time { return now },
		Bundle:   BundleConfig{Dir: dir, Registry: reg},
	})
	record(rec, "/api/classify", 504, 5*time.Millisecond)
	record(rec, "/api/classify", 200, time.Millisecond)

	b, err := rec.Capture("unit_test", false)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	for _, name := range []string{"events.json", "slo.json", "metrics.prom", "heap.pprof"} {
		p := filepath.Join(b.Dir, name)
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("bundle file %s is empty", name)
		}
	}
	raw, err := os.ReadFile(filepath.Join(b.Dir, "events.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"status": 504`) {
		t.Error("events.json does not carry the recorded 504")
	}
	if !strings.Contains(string(raw), `"observed"`) {
		t.Error("events.json does not embed the reconciliation stats")
	}

	// A second automatic capture inside bundleInterval is rate-limited;
	// force (the operator path) bypasses the limit.
	now = now.Add(bundleInterval - time.Second)
	if _, err := rec.Capture("again", false); err != ErrBundleRateLimited {
		t.Errorf("second automatic capture: err = %v, want ErrBundleRateLimited", err)
	}
	if _, err := rec.Capture("operator", true); err != nil {
		t.Errorf("forced capture rate-limited: %v", err)
	}
	// Once the interval has passed since the last capture, an automatic
	// capture lands again.
	now = now.Add(bundleInterval)
	if _, err := rec.Capture("later", false); err != nil {
		t.Errorf("automatic capture after bundleInterval: %v", err)
	}

	// Disabled bundles reject capture outright.
	off := NewRecorder(Config{Capacity: 8})
	if _, err := off.Capture("x", true); err != ErrBundlesDisabled {
		t.Errorf("capture without a dir: err = %v, want ErrBundlesDisabled", err)
	}
}

// TestTriggerBundleRateLimitsWithoutSpawning: once an automatic capture
// has landed, every further trigger inside bundleInterval is counted as
// rate-limited before TriggerBundle returns, instead of spawning a
// goroutine that queues behind the capture lock to find that out.
func TestTriggerBundleRateLimitsWithoutSpawning(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(50_000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	rec := NewRecorder(Config{Capacity: 64, Clock: clock, Bundle: BundleConfig{Dir: dir}})
	bundles := func() (captured, rateLimited float64) {
		reg := obs.NewRegistry()
		rec.Export(reg)
		return reg.Gauge("flight_bundles", "outcome", "captured").Value(),
			reg.Gauge("flight_bundles", "outcome", "rate_limited").Value()
	}

	rec.TriggerBundle("first")
	deadline := time.Now().Add(5 * time.Second)
	for captured, _ := bundles(); captured != 1; captured, _ = bundles() {
		if time.Now().After(deadline) {
			t.Fatal("the first automatic capture never landed")
		}
		time.Sleep(time.Millisecond)
	}

	mu.Lock()
	now = now.Add(time.Minute)
	mu.Unlock()
	_, before := bundles()
	var storm sync.WaitGroup
	for g := 0; g < 4; g++ {
		storm.Add(1)
		go func() {
			defer storm.Done()
			for i := 0; i < 250; i++ {
				rec.TriggerBundle("storm")
			}
		}()
	}
	storm.Wait()
	if _, after := bundles(); after-before != 1000 {
		t.Errorf("rate_limited rose by %v over 1000 triggers inside the interval, want exactly 1000 on return", after-before)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d bundle directories after one capture and 1000 rate-limited triggers, want 1", len(entries))
	}
}

func TestExportPublishesLedgerAndBurnGauges(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 16})
	for i := 0; i < 4; i++ {
		record(rec, "/api/classify", 200, time.Millisecond)
	}
	record(rec, "/api/classify", 504, time.Millisecond)
	reg := obs.NewRegistry()
	rec.Export(reg)
	if got := reg.Gauge("flight_events", "disposition", "observed").Value(); got != 5 {
		t.Errorf("flight_events{observed} = %v, want 5", got)
	}
	kept := reg.Gauge("flight_events", "disposition", "kept").Value()
	sampledOut := reg.Gauge("flight_events", "disposition", "sampled_out").Value()
	if kept+sampledOut != 5 {
		t.Errorf("exported ledger unbalanced: kept %v + sampled_out %v != 5", kept, sampledOut)
	}
	if got := reg.Gauge("slo_target", "objective", "availability").Value(); got != 0.999 {
		t.Errorf("slo_target{availability} = %v, want 0.999", got)
	}
}

func TestNilAndUnarmedSafety(t *testing.T) {
	// Every API on a nil recorder and nil active must be a no-op: the
	// serving path calls them unconditionally when the recorder is off.
	var rec *Recorder
	var a *Active
	a.SetModel(1, true, "rf")
	a.SetQueueWait(time.Second)
	a.SetTimeoutStage("queue")
	a.SetErr("x")
	a.MarkFault()
	a.MarkPanic()
	a.Finalize(200, time.Second)
	a.Timer().Observe(time.Second)
	rec.Record(a)
	rec.Export(obs.NewRegistry())
	rec.TriggerBundle("x")
	if _, err := rec.Capture("x", true); err != ErrBundlesDisabled {
		t.Errorf("nil recorder Capture: %v", err)
	}
	if st := rec.Stats(); st.Observed != 0 {
		t.Errorf("nil recorder stats: %+v", st)
	}
	if ev, m := rec.Query(Filter{}); ev != nil || m != 0 {
		t.Error("nil recorder query returned events")
	}
	if rec.SLOStatus() != nil {
		t.Error("nil recorder SLOStatus not nil")
	}
	// From on a bare context yields nil, and nil-safe methods absorb it.
	if got := From(t.Context()); got != nil {
		t.Errorf("From(bare ctx) = %v", got)
	}
}

// TestConcurrentRecordQueryExport hammers one recorder from writer,
// reader and exporter goroutines at once; run under -race by `make
// race`. The final ledger must balance exactly.
func TestConcurrentRecordQueryExport(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 64})
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				status := 200
				if i%7 == 0 {
					status = 504
				}
				a := NewActive("id", "POST", "/api/classify", time.Now())
				a.MarkFault()
				a.SetQueueWait(time.Duration(w) * time.Microsecond)
				a.Finalize(status, time.Duration(i)*time.Microsecond)
				rec.Record(a)
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			reg := obs.NewRegistry()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec.Query(Filter{Status: 504, Limit: 10})
				rec.Stats()
				rec.Export(reg)
				rec.SLOStatus()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	st := rec.Stats()
	if st.Observed != writers*perWriter {
		t.Errorf("observed %d, recorded %d", st.Observed, writers*perWriter)
	}
	if err := st.Check(); err != nil {
		t.Error(err)
	}
}

// TestOpsHandlers drives the operator endpoints on an armed recorder
// and on a nil one: a malformed filter is a 400 either way, /debug/slo
// carries both objectives when armed and answers {"enabled":false}
// otherwise, and the reply always carries the stats block next to the
// matches.
func TestOpsHandlers(t *testing.T) {
	armed := NewRecorder(Config{Capacity: 8})
	record(armed, "/api/classify", 504, time.Millisecond)
	for name, rec := range map[string]*Recorder{"armed": armed, "no recorder": nil} {
		ops := Ops{Reg: obs.NewRegistry(), Rec: rec}
		get := func(h http.HandlerFunc, query string) (int, map[string]any) {
			w := httptest.NewRecorder()
			h(w, httptest.NewRequest("GET", "/?"+query, nil))
			var body map[string]any
			if strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
					t.Fatalf("%s: undecodable reply %q: %v", name, w.Body, err)
				}
			}
			return w.Code, body
		}
		for _, q := range []string{"limit=ten", "status=x", "min-ms=-1", "min-ms=NaN", "min-ms=1e300", "since=yesterday"} {
			if code, body := get(ops.Requests, q); code != 400 || body["error"] == nil {
				t.Errorf("%s: /debug/requests?%s = %d %v, want 400 with an error", name, q, code, body)
			}
		}
		code, body := get(ops.Requests, "status=504&route=/api/classify")
		want := 0.0
		if rec != nil {
			want = 1
		}
		if code != 200 || body["matched"] != want || body["stats"] == nil || body["events"] == nil {
			t.Errorf("%s: /debug/requests = %d %v, want %v matched with stats and events", name, code, body, want)
		}
		code, body = get(ops.SLO, "")
		if rec == nil && (code != 200 || body["enabled"] != false) {
			t.Errorf("%s: /debug/slo = %d %v, want enabled=false", name, code, body)
		}
		if rec != nil && (code != 200 || body["availability"] == nil || body["latency"] == nil) {
			t.Errorf("%s: /debug/slo = %d %v, want both objectives", name, code, body)
		}
		if code, _ := get(ops.Bundle, ""); code != 503 {
			t.Errorf("%s: /debug/bundle = %d, want 503 with no bundle directory", name, code)
		}
		if code, _ := get(ops.Metrics, ""); code != 200 {
			t.Errorf("%s: /metrics = %d", name, code)
		}
	}
}

// TestStagesLapQueryAndJSON: Lap stamps the time since its start onto
// one stage and hands back the boundary for the next, a nil event still
// reads the clock, the id filter finds the one request, and the stages
// survive the JSON /debug/requests writes, keyed by stage name.
func TestStagesLapQueryAndJSON(t *testing.T) {
	var none *Active
	if got := none.Lap(StageRead, time.Time{}); got.IsZero() {
		t.Error("Lap on a nil event returned the zero time")
	}

	a := NewActive("req-7", "POST", "/api/classify/batch", time.Unix(1000, 0))
	t0 := time.Now().Add(-4 * time.Millisecond)
	t1 := a.Lap(StageRead, t0)
	t2 := a.Lap(StageDecode, t1)
	a.Lap(StageScore, t2.Add(-2*time.Millisecond))
	if a.Stages[StageRead] < int64(4*time.Millisecond) || a.Stages[StageScore] < int64(2*time.Millisecond) {
		t.Errorf("stages %v: read < 4ms or score < 2ms", a.Stages)
	}
	if a.Stages[StageEncode] != 0 {
		t.Errorf("unstamped encode stage is %d", a.Stages[StageEncode])
	}
	if a.Stages.Sum() != a.Stages[0]+a.Stages[1]+a.Stages[2]+a.Stages[3] {
		t.Errorf("Sum %d disagrees with the stages %v", a.Stages.Sum(), a.Stages)
	}
	a.Finalize(200, 10*time.Millisecond)

	rec := NewRecorder(Config{Capacity: 8})
	rec.Record(a)
	record(rec, "/api/classify/batch", 200, time.Millisecond)
	if _, m := rec.Query(Filter{ID: "req-8", Limit: -1}); m != 0 {
		t.Errorf("id req-8 matched %d, want 0", m)
	}
	events, m := rec.Query(Filter{ID: "req-7", Limit: -1})
	if m != 1 || events[0].Stages != a.Stages {
		t.Fatalf("id req-7 matched %d (%v), want the one event with stages %v", m, events, a.Stages)
	}

	blob, err := json.Marshal(events[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"stages":{"read":`) {
		t.Errorf("event JSON %s does not key stages by name", blob)
	}
	var back Event
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stages != a.Stages {
		t.Errorf("stages round-tripped to %v, want %v", back.Stages, a.Stages)
	}
}
