package lifecycle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml/forest"
	"repro/internal/obs/flight"
	"repro/internal/rng"
	"repro/internal/testkit"
)

// testWorld is the shared unit-test fixture: a real champion trained on
// the simulation's unshifted world, installed in a real manager, with
// the drift baseline frozen from its own training predictions.
type testWorld struct {
	mgr   *core.ModelManager
	champ *core.JobClassifier
	base  *Baseline
	names []string
}

func newTestWorld(t *testing.T) *testWorld {
	t.Helper()
	train, err := simBootSet(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	champ, err := core.TrainJobClassifier(train, core.ClassifierConfig{
		Algo: core.AlgoForest, Forest: forest.Config{Trees: 30, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewModelManager(nil)
	if _, err := mgr.Swap(champ); err != nil {
		t.Fatal(err)
	}
	base, err := BaselineFor(train, champ, 10)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{mgr: mgr, champ: champ, base: base, names: train.FeatureNames}
}

// smallCfg is a loop config sized for unit tests: tiny window, fast
// evaluation cadence, no initial cooldown.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Window = 64
	cfg.MinRows = 64
	cfg.Every = 16
	cfg.DriftThreshold = 0.5
	cfg.PosteriorThreshold = 0.5
	cfg.ShadowMin = 32
	cfg.Cooldown = 64
	cfg.TrainWindow = 320
	cfg.Algo = "rf"
	return cfg
}

// shiftedTrainResult builds a genuinely better challenger: trained on
// the rotated+offset world the champion has never seen.
func (w *testWorld) shiftedTrainResult(t *testing.T) TrainResult {
	t.Helper()
	rows, labels := shiftedTraffic(99, 400)
	res, err := TrainChallenger(w.names, rows, labels, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// shiftedTraffic draws n rows of the post-shift world (class k at class
// k+1's old center, +1.5 everywhere) with their true labels.
func shiftedTraffic(seed uint64, n int) ([][]float64, []string) {
	rows, labels := make([][]float64, n), make([]string, n)
	root := rng.New(seed)
	for i := range rows {
		k := i % simClasses
		rows[i] = simRow(root.Split(uint64(i)), (k+1)%simClasses, 1.5)
		labels[i] = fmt.Sprintf("class%02d", k)
	}
	return rows, labels
}

// stableTraffic draws n rows of the unshifted boot world.
func stableTraffic(seed uint64, n int) [][]float64 {
	rows := make([][]float64, n)
	root := rng.New(seed)
	for i := range rows {
		rows[i] = simRow(root.Split(uint64(i)), i%simClasses, 0)
	}
	return rows
}

// observeAll feeds rows through the loop with the champion's own
// predictions, the way the serving path does.
func (w *testWorld) observeAll(ctx context.Context, l *Loop, rows [][]float64) {
	classes := w.champ.Classes()
	for _, row := range rows {
		l.Observe(ctx, row, classes[w.champ.Predict(row)])
	}
}

func checkLedger(t *testing.T, lg Ledger) {
	t.Helper()
	if err := lg.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidatesOptions(t *testing.T) {
	w := newTestWorld(t)
	bad := smallCfg()
	bad.Window = 1
	if _, err := New(bad, Options{Manager: w.mgr, Baseline: w.base}); err == nil {
		t.Error("accepted an invalid config")
	}
	if _, err := New(smallCfg(), Options{Baseline: w.base}); err == nil {
		t.Error("accepted a nil manager")
	}
	if _, err := New(smallCfg(), Options{Manager: w.mgr}); err == nil {
		t.Error("accepted a nil baseline")
	}
}

func TestNilLoopIsInert(t *testing.T) {
	var l *Loop
	l.Observe(context.Background(), []float64{1}, "x") // must not panic
	if st := l.Status(); st.State != "" {
		t.Fatalf("nil loop status: %+v", st)
	}
	if l.State() != "" || l.LedgerSnapshot() != (Ledger{}) {
		t.Fatal("nil loop is not inert")
	}
}

func TestDriftFiresOnShiftedTraffic(t *testing.T) {
	w := newTestWorld(t)
	pokes := 0
	l, err := New(smallCfg(), Options{Manager: w.mgr, Baseline: w.base, Notify: func() { pokes++ }})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := shiftedTraffic(21, 96)
	w.observeAll(context.Background(), l, rows)
	st := l.Status()
	if st.State != StateDrifting {
		t.Fatalf("state = %s after shifted traffic, want drifting (maxPSI %v)", st.State, st.MaxFeaturePSI)
	}
	if st.DriftEvents == 0 || st.MaxFeaturePSI < 0.5 {
		t.Fatalf("drift not recorded: %+v", st)
	}
	if pokes == 0 {
		t.Fatal("drift did not poke the notifier")
	}
	if len(st.Transitions) != 1 || st.Transitions[0].To != StateDrifting {
		t.Fatalf("transitions: %+v", st.Transitions)
	}
}

func TestNoDriftOnStableTraffic(t *testing.T) {
	w := newTestWorld(t)
	l, err := New(smallCfg(), Options{Manager: w.mgr, Baseline: w.base})
	if err != nil {
		t.Fatal(err)
	}
	w.observeAll(context.Background(), l, stableTraffic(22, 256))
	st := l.Status()
	if st.State != StateStable || st.DriftEvents != 0 {
		t.Fatalf("stable traffic alarmed: state=%s events=%d maxPSI=%v", st.State, st.DriftEvents, st.MaxFeaturePSI)
	}
}

func TestRetrainInstallsChallengerAndShadowScores(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Retrain(); err != nil {
		t.Fatal(err)
	}
	st := l.Status()
	if st.State != StateShadowing || !st.ChallengerReady || st.Retrains != 1 {
		t.Fatalf("after retrain: %+v", st)
	}

	// Shadow-score through a wide event; the flight tallies must match
	// the ledger exactly.
	fa := flight.NewActive("req-1", "POST", "/api/classify", time.Now())
	ctx := flight.With(context.Background(), fa)
	rows, _ := shiftedTraffic(23, smallCfg().ShadowMin)
	w.observeAll(ctx, l, rows)
	fa.Finalize(200, time.Millisecond)

	st = l.Status()
	if st.State != StatePromoting {
		t.Fatalf("shadow window full but state = %s", st.State)
	}
	checkLedger(t, st.Ledger)
	if st.Ledger.Eligible != uint64(len(rows)) || st.Ledger.Errors != 0 {
		t.Fatalf("ledger: %+v for %d rows", st.Ledger, len(rows))
	}
	if fa.ShadowRows != int64(st.Ledger.Scored) || fa.ShadowAgree != int64(st.Ledger.Agree) {
		t.Fatalf("flight event (rows=%d agree=%d) does not reconcile with ledger %+v",
			fa.ShadowRows, fa.ShadowAgree, st.Ledger)
	}
}

func TestRetrainErrorKeepsState(t *testing.T) {
	w := newTestWorld(t)
	boom := errors.New("warehouse unavailable")
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return TrainResult{}, boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Retrain(); !errors.Is(err, boom) {
		t.Fatalf("retrain error = %v, want %v", err, boom)
	}
	st := l.Status()
	if st.State != StateStable || st.ChallengerReady || st.Retrains != 0 {
		t.Fatalf("failed retrain mutated the loop: %+v", st)
	}

	// A trainer without a loop-wired Trainer must refuse outright.
	l2, err := New(smallCfg(), Options{Manager: w.mgr, Baseline: w.base})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Retrain(); err == nil {
		t.Fatal("retrain without a trainer succeeded")
	}
}

func TestDecidePromotesThenRollback(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := w.mgr.Generation()
	if err := l.Retrain(); err != nil {
		t.Fatal(err)
	}
	if err := l.Decide(); err != nil {
		t.Fatal(err)
	}
	st := l.Status()
	if st.Promotions != 1 || st.State != StateStable || !st.RollbackReady {
		t.Fatalf("after promotion: %+v", st)
	}
	if w.mgr.Generation() != gen0+1 {
		t.Fatalf("generation %d after promotion, want %d", w.mgr.Generation(), gen0+1)
	}
	d := st.LastDecision
	if d == nil || !d.Promoted || d.C <= d.B || d.P > smallCfg().Alpha {
		t.Fatalf("promotion decision does not satisfy the gate: %+v", d)
	}
	if len(d.Sweep) == 0 {
		t.Fatal("promotion decision is missing the threshold sweep")
	}
	if st.CooldownLeft != smallCfg().Cooldown {
		t.Fatalf("cooldown %d after promotion, want %d", st.CooldownLeft, smallCfg().Cooldown)
	}

	// Rollback restores the prior champion; exactly one generation of
	// history is kept.
	if err := l.Rollback(); err != nil {
		t.Fatal(err)
	}
	st = l.Status()
	if st.Rollbacks != 1 || st.RollbackReady {
		t.Fatalf("after rollback: %+v", st)
	}
	if w.mgr.Generation() != gen0+2 {
		t.Fatalf("generation %d after rollback, want %d", w.mgr.Generation(), gen0+2)
	}
	if w.mgr.View().Model != w.champ {
		t.Fatal("rollback did not restore the original champion")
	}
	if err := l.Rollback(); err == nil {
		t.Fatal("second rollback without an intervening promotion succeeded")
	}
}

func TestDecideDemotesOnTie(t *testing.T) {
	w := newTestWorld(t)
	// The "challenger" is the champion itself: zero disagreements, so
	// the gate must refuse and demote.
	_, labels := shiftedTraffic(31, 100)
	rows := stableTraffic(31, 100)
	res, err := TrainChallenger(w.names, rows, labels, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	res.Model = w.champ
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := w.mgr.Generation()
	if err := l.Retrain(); err != nil {
		t.Fatal(err)
	}
	if err := l.Decide(); err != nil {
		t.Fatal(err)
	}
	st := l.Status()
	if st.Demotions != 1 || st.Promotions != 0 || st.State != StateStable || st.ChallengerReady {
		t.Fatalf("after tied gate: %+v", st)
	}
	if w.mgr.Generation() != gen0 {
		t.Fatal("a demotion must not touch the champion")
	}
	if d := st.LastDecision; d == nil || d.Promoted || d.B != 0 || d.C != 0 {
		t.Fatalf("tie decision: %+v", d)
	}
}

func TestPromotionGuardErrorKeepsChallengerShadowing(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	guardErr := error(nil)
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
		Guard: func(op func() error) error {
			if guardErr != nil {
				return guardErr
			}
			return op()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := w.mgr.Generation()
	if err := l.Retrain(); err != nil {
		t.Fatal(err)
	}
	guardErr = errors.New("breaker open")
	if err := l.Decide(); err == nil {
		t.Fatal("promotion through a failing guard succeeded")
	}
	st := l.Status()
	if st.State != StateShadowing || !st.ChallengerReady || st.Promotions != 0 {
		t.Fatalf("after guarded promotion failure: %+v", st)
	}
	if w.mgr.Generation() != gen0 {
		t.Fatal("a failed promotion must not advance the champion generation")
	}
	// The control plane recovers: the same challenger promotes.
	guardErr = nil
	if err := l.Decide(); err != nil {
		t.Fatal(err)
	}
	if w.mgr.Generation() != gen0+1 || l.Status().Promotions != 1 {
		t.Fatal("recovered promotion did not land")
	}
}

func TestStepHonorsAutoFlag(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	manual := smallCfg()
	manual.Auto = false
	l, err := New(manual, Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := shiftedTraffic(41, 96)
	w.observeAll(context.Background(), l, rows)
	if st := l.State(); st != StateDrifting {
		t.Fatalf("state %s, want drifting", st)
	}
	l.Step()
	if st := l.Status(); st.Retrains != 0 || st.State != StateDrifting {
		t.Fatalf("manual loop acted on Step: %+v", st)
	}

	auto, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	w.observeAll(context.Background(), auto, rows)
	auto.Step()
	if st := auto.Status(); st.Retrains != 1 || st.State != StateShadowing {
		t.Fatalf("auto loop did not retrain on Step: %+v", st)
	}
}

// TestDecideScoresAcrossVocabularies pins the promotion gate's label
// (not index) comparison: an evaluation window drawn from only two of
// the champion's four classes builds ClassNames that index differently
// from the champion's own vocabulary — the expected situation under
// drift, where the recent sliding window need not contain every class.
// The champion classifies this unshifted traffic near-perfectly, and
// the gate must see that rather than mis-scoring it through misaligned
// indices (which would wrongly promote the challenger).
func TestDecideScoresAcrossVocabularies(t *testing.T) {
	w := newTestWorld(t)
	n := 200
	rows, labels := make([][]float64, n), make([]string, n)
	root := rng.New(51)
	for i := range rows {
		k := 1 + i%2 // classes 1 and 2 only: eval vocab is a shifted subset
		rows[i] = simRow(root.Split(uint64(i)), k, 0)
		labels[i] = fmt.Sprintf("class%02d", k)
	}
	res, err := TrainChallenger(w.names, rows, labels, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eval.ClassNames) != 2 {
		t.Fatalf("eval vocabulary %v, want the two window classes", res.Eval.ClassNames)
	}
	dec := decide(w.champ, res.Model, res.Eval, smallCfg())
	if dec.ChampAcc < 0.9 {
		t.Fatalf("champion accuracy %v on its own unshifted classes: the gate is comparing class indices across vocabularies", dec.ChampAcc)
	}
	if dec.Promoted {
		t.Fatalf("a challenger no better than the champion was promoted: %+v", dec)
	}
}

// TestRetrainRejectsMismatchedEvalVocabulary pins the Retrain-time
// invariant the threshold sweep relies on: the challenger must share
// the evaluation window's class vocabulary.
func TestRetrainRejectsMismatchedEvalVocabulary(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	// Swap in an evaluation window whose vocabulary the challenger was
	// not trained on (two classes instead of four).
	rows, labels := make([][]float64, 40), make([]string, 40)
	root := rng.New(52)
	for i := range rows {
		k := i % 2
		rows[i] = simRow(root.Split(uint64(i)), k, 0)
		labels[i] = fmt.Sprintf("class%02d", k)
	}
	narrow, err := dataset.New(w.names, rows, labels)
	if err != nil {
		t.Fatal(err)
	}
	res.Eval = narrow
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Retrain(); err == nil {
		t.Fatal("retrain accepted a challenger whose classes do not match the evaluation window")
	}
	if st := l.Status(); st.ChallengerReady || st.State != StateStable {
		t.Fatalf("rejected retrain mutated the loop: %+v", st)
	}
}

// TestRollbackRestoresDriftBaseline pins that a rollback reinstates the
// pre-promotion champion's drift baseline along with the model: leaving
// the promoted challenger's baseline in place would measure the
// restored champion against the removed model's reference.
func TestRollbackRestoresDriftBaseline(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	if res.Baseline == nil {
		t.Fatal("fixture challenger carries no baseline")
	}
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Retrain(); err != nil {
		t.Fatal(err)
	}
	if err := l.Decide(); err != nil {
		t.Fatal(err)
	}
	if l.base != res.Baseline {
		t.Fatal("promotion did not install the challenger's baseline")
	}
	if err := l.Rollback(); err != nil {
		t.Fatal(err)
	}
	if l.base != w.base {
		t.Fatal("rollback kept the promoted challenger's drift baseline")
	}
}

// TestConcurrentDecideCannotDoublePromote pins the control-plane
// serialization: an admin promotion racing the auto Step goroutine
// (here, two concurrent Decide calls under live shadow traffic) must
// promote the challenger exactly once, and the shadow ledger must still
// conserve every row.
func TestConcurrentDecideCannotDoublePromote(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := w.mgr.Generation()
	if err := l.Retrain(); err != nil {
		t.Fatal(err)
	}
	rows, _ := shiftedTraffic(61, 128)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		w.observeAll(context.Background(), l, rows)
	}()
	errs := make([]error, 2)
	for i := range errs {
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Decide()
		}(i)
	}
	wg.Wait()
	okCount := 0
	for _, err := range errs {
		switch {
		case err == nil:
			okCount++
		case !errors.Is(err, ErrNoChallenger):
			t.Fatalf("concurrent decide failed unexpectedly: %v", err)
		}
	}
	if okCount != 1 {
		t.Fatalf("%d of 2 concurrent decides promoted, want exactly 1", okCount)
	}
	st := l.Status()
	if st.Promotions != 1 || st.Demotions != 0 {
		t.Fatalf("after racing decides: %+v", st)
	}
	if g := w.mgr.Generation(); g != gen0+1 {
		t.Fatalf("generation %d after racing decides, want %d", g, gen0+1)
	}
	checkLedger(t, st.Ledger)
}

func TestWindowRingWrapsAndCounts(t *testing.T) {
	d, preds, classes := driftWorld(t, 3)
	base, err := NewBaseline(d, preds, classes, 4)
	if err != nil {
		t.Fatal(err)
	}
	win := newWindow(4, base)
	for i := 0; i < 6; i++ {
		cls := i % 2
		if i == 5 {
			cls = -1 // outside the vocabulary: kept, not counted
		}
		win.add(d.X[i], cls)
	}
	// Rows 2..5 are live: every feature's bin counts sum to the ring's
	// capacity, and row 5's class is held but uncounted.
	if win.n != 4 {
		t.Fatalf("ring holds %d rows, want 4", win.n)
	}
	for f := range base.Features {
		sum := 0
		for _, c := range win.featCounts[f*base.Bins : (f+1)*base.Bins] {
			sum += c
		}
		if sum != 4 {
			t.Fatalf("feature %d bin counts sum to %d, want 4", f, sum)
		}
	}
	if win.clsCounts[0] != 2 || win.clsCounts[1] != 1 {
		t.Fatalf("class counts: %v", win.clsCounts)
	}
	win.reset(base)
	if win.n != 0 || slices.Max(win.featCounts) != 0 || slices.Max(win.clsCounts) != 0 {
		t.Fatalf("reset ring still holds %d rows (counts %v / %v)", win.n, win.featCounts, win.clsCounts)
	}
}

// TestWindowPSIMatchesReference holds the window's running counts to the
// reference form at every row across fill, wrap-around and a reset onto
// a different baseline: its PSI vector and posterior PSI must equal
// Baseline.FeaturePSI / PosteriorPSI recomputed from the same rows, bit
// for bit.
func TestWindowPSIMatchesReference(t *testing.T) {
	d, preds, classes := driftWorld(t, 3)
	first, err := NewBaseline(d, preds, classes, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The second baseline differs in edges, bin count and vocabulary size,
	// so the reset must rebuild the window's tables, not just clear them.
	d2, preds2, _ := driftWorld(t, 4)
	for i := range preds2 {
		preds2[i] = classes[i%2]
	}
	second, err := NewBaseline(d2, preds2, classes[:2], 7)
	if err != nil {
		t.Fatal(err)
	}

	const capacity = 16
	win := newWindow(capacity, first)
	check := func(base *Baseline, live [][]float64, liveCls []int, at string) {
		t.Helper()
		want := base.FeaturePSI(live)
		got := win.featurePSI()
		if len(got) != len(want) {
			t.Fatalf("%s: %d PSI values, want %d", at, len(got), len(want))
		}
		for f := range want {
			if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
				t.Fatalf("%s feature %d: window PSI %v, FeaturePSI %v", at, f, got[f], want[f])
			}
		}
		counts := make([]int, len(base.Classes))
		for _, c := range liveCls {
			if c >= 0 {
				counts[c]++
			}
		}
		if got, want := win.posteriorPSI(), base.PosteriorPSI(counts, len(live)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: window posterior PSI %v, PosteriorPSI %v", at, got, want)
		}
	}
	feed := func(base *Baseline, seed uint64, phase string) {
		var live [][]float64
		var liveCls []int
		check(base, live, liveCls, phase+" empty")
		// 3.5 laps of the ring, drifting further every lap.
		for i, row := range driftRows(seed, capacity*7/2, 0) {
			for f := range row {
				row[f] += float64(i/capacity) * 0.75
			}
			cls := i%(len(base.Classes)+1) - 1 // -1 included: outside the vocabulary
			win.add(row, cls)
			live, liveCls = append(live, row), append(liveCls, cls)
			if len(live) > capacity {
				live, liveCls = live[1:], liveCls[1:]
			}
			check(base, live, liveCls, fmt.Sprintf("%s row %d", phase, i))
		}
	}
	feed(first, 21, "first baseline")
	win.reset(second)
	feed(second, 22, "after reset")
}

// TestTrainChallengerLeavesRowsUntouched pins what lets supremm-serve
// hand one boot dataset's rows to every retrain: TrainChallenger never
// writes its input rows, and a second call on the same rows trains the
// same challenger, byte for byte, for every challenger family.
func TestTrainChallengerLeavesRowsUntouched(t *testing.T) {
	names := newTestWorld(t).names
	rows, labels := shiftedTraffic(5, 120)
	before := testkit.HashFloats(rows...)
	for _, algo := range []string{"rf", "svm", "nb", "stack"} {
		cfg := smallCfg()
		cfg.Algo = algo
		var saved [2][]byte
		for i := range saved {
			res, err := TrainChallenger(names, rows, labels, cfg)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if got := testkit.HashFloats(rows...); got != before {
				t.Fatalf("%s: training call %d rewrote its input rows", algo, i+1)
			}
			if saved[i], err = res.Model.SaveBytes(); err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
		}
		if !bytes.Equal(saved[0], saved[1]) {
			t.Fatalf("%s: two retrains on the same rows saved different challengers", algo)
		}
	}
}
