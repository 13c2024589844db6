package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/ml/forest"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/rng"
)

// The lifecycle endpoints over a real HTTP server: the Observe hook on
// the classify path feeds the loop, the admin endpoints drive
// retrain/promote/rollback through the shared control-plane breaker,
// and failures map onto the documented status codes.

const (
	lcClasses  = 4
	lcFeatures = 6
	lcSpread   = 0.35
)

// lcCenter is the same collision-free class layout the lifecycle
// simulation uses (see internal/lifecycle/simharness_test.go).
func lcCenter(k, f int) float64 { return float64((5*k+3*f)%11) + 0.5*float64(k) }

// lcTraffic draws n labeled rows round-robin over the classes. When
// rotate is set the world has shifted: class k's rows live at class
// (k+1)'s old center plus a uniform offset, so a champion trained on
// the unrotated world answers the old tenant's label.
func lcTraffic(seed uint64, n int, rotate bool) ([][]float64, []string) {
	r := rng.New(seed)
	rows := make([][]float64, n)
	labels := make([]string, n)
	for i := range rows {
		k := i % lcClasses
		ck, shift := k, 0.0
		if rotate {
			ck, shift = (k+1)%lcClasses, 1.5
		}
		row := make([]float64, lcFeatures)
		for f := range row {
			row[f] = lcCenter(ck, f) + lcSpread*r.Normal() + shift
		}
		rows[i] = row
		labels[i] = fmt.Sprintf("class%02d", k)
	}
	return rows, labels
}

func lcFeatureNames() []string {
	names := make([]string, lcFeatures)
	for f := range names {
		names[f] = fmt.Sprintf("feat%02d", f)
	}
	return names
}

// lcConfig is a loop config small enough to drive over HTTP in a test.
func lcConfig() lifecycle.Config {
	cfg := lifecycle.DefaultConfig()
	cfg.Window = 64
	cfg.MinRows = 64
	cfg.Every = 16
	cfg.DriftThreshold = 0.5
	cfg.PosteriorThreshold = 0.5
	cfg.ShadowMin = 16
	cfg.Cooldown = 64
	cfg.TrainWindow = 320
	cfg.Algo = "rf"
	cfg.Seed = 5
	cfg.Auto = false
	return cfg
}

type lcFixture struct {
	srv    *httptest.Server
	server *Server
	reg    *obs.Registry
	models *core.ModelManager
	names  []string

	trainErr     error
	trainerCalls int
}

func newLCFixture(t *testing.T, opts ...Option) *lcFixture {
	t.Helper()
	res := pipeline(t, 91, 80)
	fx := &lcFixture{names: lcFeatureNames()}
	rows, labels := lcTraffic(11, 240, false)
	train, err := dataset.New(fx.names, rows, labels)
	if err != nil {
		t.Fatal(err)
	}
	champ := shared(t, "lifecycle champion", func() (*core.JobClassifier, error) {
		return core.TrainJobClassifier(train, core.ClassifierConfig{
			Algo: core.AlgoForest, Forest: forest.Config{Trees: 30, Seed: 7},
		})
	})
	cfg := lcConfig()
	base, err := lifecycle.BaselineFor(train, champ, cfg.Bins)
	if err != nil {
		t.Fatal(err)
	}
	// The trainer retrains on the rotated world: its challenger answers
	// the shifted traffic correctly, so the promotion gate has a real
	// winner whenever live traffic is rotated too.
	trainer := func() (lifecycle.TrainResult, error) {
		fx.trainerCalls++
		if fx.trainErr != nil {
			return lifecycle.TrainResult{}, fx.trainErr
		}
		shiftRows, shiftLabels := lcTraffic(23, cfg.TrainWindow, true)
		return lifecycle.TrainChallenger(fx.names, shiftRows, shiftLabels, cfg)
	}

	fx.reg = obs.NewRegistry()
	fx.models = core.NewModelManager(fx.reg)
	if _, err := fx.models.Swap(champ); err != nil {
		t.Fatal(err)
	}
	all := append([]Option{
		WithMetrics(fx.reg), WithModelManager(fx.models),
		WithLifecycle(cfg, lifecycle.Options{Trainer: trainer, Baseline: base}),
	}, opts...)
	fx.server = New(res.Store, nil, 6400, all...)
	fx.srv = httptest.NewServer(fx.server)
	t.Cleanup(fx.srv.Close)
	return fx
}

// classify POSTs one row and returns the HTTP status.
func (fx *lcFixture) classify(t *testing.T, row []float64) int {
	t.Helper()
	features := make(map[string]float64, len(fx.names))
	for i, n := range fx.names {
		features[n] = row[i]
	}
	body, _ := json.Marshal(map[string]any{"features": features, "threshold": 0.1})
	resp, err := http.Post(fx.srv.URL+"/api/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// post hits a lifecycle admin endpoint and decodes the returned status.
func (fx *lcFixture) post(t *testing.T, path string) (int, lifecycle.Status, http.Header) {
	t.Helper()
	resp, err := http.Post(fx.srv.URL+path, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st lifecycle.Status
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st, resp.Header
}

func (fx *lcFixture) status(t *testing.T) (int, lifecycle.Status) {
	t.Helper()
	var st lifecycle.Status
	code := getJSON(t, fx.srv.URL+"/api/lifecycle", &st)
	return code, st
}

func TestLifecycleDisabledAnswers503(t *testing.T) {
	srv := httptest.NewServer(New(pipeline(t, 91, 80).Store, nil, 6400))
	defer srv.Close()

	var st lifecycle.Status
	if code := getJSON(t, srv.URL+"/api/lifecycle", &st); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /api/lifecycle without the loop: status %d, want 503", code)
	}
	resp, err := http.Post(srv.URL+"/admin/lifecycle/retrain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("retrain without the loop: status %d, want 503", resp.StatusCode)
	}
}

// The full arc over HTTP: live classify traffic feeds the loop through
// the Observe hook, drift fires on rotated traffic, the admin endpoints
// retrain, shadow-score, promote and roll back, and the ledger the
// status reports balances at every step.
func TestLifecycleArcOverHTTP(t *testing.T) {
	fx := newLCFixture(t)

	code, st := fx.status(t)
	if code != 200 || st.State != "stable" {
		t.Fatalf("boot status %d %q, want 200 stable", code, st.State)
	}
	if _, err := lifecycle.ParseSpec(st.Spec); err != nil {
		t.Fatalf("status spec %q does not re-parse: %v", st.Spec, err)
	}

	// Rotated traffic through the public classify endpoint must fill
	// the drift window and fire the alarm — the Observe hook is the
	// only path from HTTP to the loop.
	rows, _ := lcTraffic(31, lcConfig().Window, true)
	for _, row := range rows {
		if code := fx.classify(t, row); code != 200 {
			t.Fatalf("classify status %d", code)
		}
	}
	if _, st = fx.status(t); st.State != "drifting" {
		t.Fatalf("state %q after a window of rotated traffic, want drifting (maxPSI=%v)", st.State, st.MaxFeaturePSI)
	}
	if st.RowsObserved != uint64(lcConfig().Window) {
		t.Fatalf("loop observed %d rows, want %d", st.RowsObserved, lcConfig().Window)
	}
	select {
	case <-fx.server.LifecycleNotify():
	default:
		t.Fatal("drift fired but the notify channel is empty")
	}

	// Retrain installs the challenger; subsequent classify traffic is
	// shadow-scored and the ledger the status reports must balance.
	code, st, _ = fx.post(t, "/admin/lifecycle/retrain")
	if code != 200 || st.State != "shadowing" || !st.ChallengerReady {
		t.Fatalf("retrain: %d %q ready=%v", code, st.State, st.ChallengerReady)
	}
	if fx.trainerCalls != 1 {
		t.Fatalf("trainer ran %d times, want 1", fx.trainerCalls)
	}
	shadowRows, _ := lcTraffic(37, 2*lcConfig().ShadowMin, true)
	for _, row := range shadowRows {
		fx.classify(t, row)
	}
	_, st = fx.status(t)
	lg := st.Ledger
	if lg.Eligible != uint64(len(shadowRows)) {
		t.Fatalf("ledger eligible %d, want %d", lg.Eligible, len(shadowRows))
	}
	if err := lg.Check(); err != nil {
		t.Fatal(err)
	}
	if lg.Scored == 0 {
		t.Fatal("no rows shadow-scored over HTTP")
	}

	// Promote: the challenger wins on rotated traffic, the champion
	// generation advances, and the loop cools down.
	code, st, _ = fx.post(t, "/admin/lifecycle/promote")
	if code != 200 {
		t.Fatalf("promote status %d", code)
	}
	if st.Promotions != 1 || st.LastDecision == nil || !st.LastDecision.Promoted {
		t.Fatalf("promotion did not land: %+v", st.LastDecision)
	}
	if fx.models.Generation() != 2 {
		t.Fatalf("generation %d after promotion, want 2", fx.models.Generation())
	}

	// Rollback restores the pre-promotion champion (a new generation:
	// every swap advances the counter); a second rollback has no
	// history left and conflicts.
	code, st, _ = fx.post(t, "/admin/lifecycle/rollback")
	if code != 200 || st.Rollbacks != 1 {
		t.Fatalf("rollback: %d %+v", code, st)
	}
	if fx.models.Generation() != 3 {
		t.Fatalf("generation %d after rollback, want 3", fx.models.Generation())
	}
	if code, _, _ = fx.post(t, "/admin/lifecycle/rollback"); code != http.StatusConflict {
		t.Fatalf("second rollback status %d, want 409", code)
	}
}

func TestLifecyclePreconditionsAre409(t *testing.T) {
	fx := newLCFixture(t)

	// Promote with no challenger shadowing.
	if code, _, _ := fx.post(t, "/admin/lifecycle/promote"); code != http.StatusConflict {
		t.Fatalf("promote without challenger: %d, want 409", code)
	}
	// Rollback with no promotion history.
	if code, _, _ := fx.post(t, "/admin/lifecycle/rollback"); code != http.StatusConflict {
		t.Fatalf("rollback without history: %d, want 409", code)
	}
}

func TestLifecycleRetrainFailureIs500AndKeepsChampion(t *testing.T) {
	fx := newLCFixture(t)
	fx.trainErr = errors.New("warehouse on fire")

	code, _, _ := fx.post(t, "/admin/lifecycle/retrain")
	if code != http.StatusInternalServerError {
		t.Fatalf("failing retrain status %d, want 500", code)
	}
	if fx.models.Generation() != 1 {
		t.Fatalf("failed retrain moved the champion to generation %d", fx.models.Generation())
	}
	if _, st := fx.status(t); st.ChallengerReady {
		t.Fatal("failed retrain left a challenger installed")
	}
}

// Repeated retrain failures trip the shared control-plane breaker —
// the same one model reloads use — and the endpoint then fails fast
// with 503 + Retry-After without consulting the trainer.
func TestLifecycleBreakerOpens503WithRetryAfter(t *testing.T) {
	fx := newLCFixture(t, WithReloadBreaker(resilience.BreakerConfig{
		FailureThreshold: 2, OpenFor: time.Minute,
	}))
	fx.trainErr = errors.New("persistent failure")

	for i := 0; i < 2; i++ {
		if code, _, _ := fx.post(t, "/admin/lifecycle/retrain"); code != http.StatusInternalServerError {
			t.Fatalf("retrain %d status %d, want 500", i, code)
		}
	}
	calls := fx.trainerCalls
	code, _, hdr := fx.post(t, "/admin/lifecycle/retrain")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open retrain status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("breaker-open response is missing Retry-After")
	}
	if fx.trainerCalls != calls {
		t.Fatal("open breaker still consulted the trainer")
	}
	if got := fx.reg.Counter("model_breaker_rejections_total").Value(); got == 0 {
		t.Fatal("breaker rejection was not counted")
	}
}
