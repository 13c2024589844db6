package lifecycle

import (
	"bytes"
	"context"
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// The lifecycle chaos suite (picked up by `make chaos` alongside the
// server's): every lifecycle.* fault site crossed with every fault
// kind, proving that a failed or wedged retrain/promotion never
// disturbs the serving champion, that control-plane failures trip the
// shared breaker, and that the state machine recovers once faults
// clear.

// armed builds a fault registry with one site armed at rate 1.
func armed(t *testing.T, site string, spec resilience.FaultSpec) *resilience.Faults {
	t.Helper()
	f := resilience.NewFaults(1)
	if err := f.Set(site, spec); err != nil {
		t.Fatal(err)
	}
	return f
}

// breakerGuard reproduces the server's control-plane guard: Allow,
// run, Record — so consecutive lifecycle failures open the same kind
// of breaker the model-reload path uses.
func breakerGuard(b *resilience.Breaker) func(op func() error) error {
	return func(op func() error) error {
		if err := b.Allow(); err != nil {
			return err
		}
		err := op()
		b.Record(err)
		return err
	}
}

func TestChaosLifecycleRetrainErrorNeverDisturbsChampion(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	calls := 0
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { calls++; return res, nil },
		Faults:  armed(t, FaultRetrain, resilience.FaultSpec{Kind: resilience.FaultError, Rate: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := w.mgr.Generation()
	for i := 0; i < 3; i++ {
		if err := l.Retrain(); err == nil {
			t.Fatal("retrain succeeded with an error fault armed at rate 1")
		}
	}
	if calls != 0 {
		t.Fatalf("the fault fires before the trainer, but the trainer ran %d times", calls)
	}
	st := l.Status()
	if w.mgr.Generation() != gen0 || st.ChallengerReady || st.State != StateStable {
		t.Fatalf("failed retrains disturbed the loop: gen=%d st=%+v", w.mgr.Generation(), st)
	}
}

// TestChaosLifecycleGateRefusedChallenger covers a trainer whose
// challenger fails core's fit-to-serve gate (here: restored from a
// snapshot whose scaler is one entry short of its feature list, which
// would index out of range on the first served row). The gate's error
// is the trainer's error: a counted retrain failure, no challenger
// installed, and the champion's generation and answers exactly as
// before.
func TestChaosLifecycleGateRefusedChallenger(t *testing.T) {
	w := newTestWorld(t)
	// Mirrors core's unexported snapshot form; gob matches by field name.
	var snap struct {
		Algo        string
		Features    []string
		Means, Stds []float64
		Model       []byte
	}
	saved, err := w.champ.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snap.Means = snap.Means[:len(snap.Means)-1]
	var hostile bytes.Buffer
	if err := gob.NewEncoder(&hostile).Encode(snap); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base, Registry: reg,
		Trainer: func() (TrainResult, error) {
			m, err := core.LoadJobClassifier(bytes.NewReader(hostile.Bytes()))
			return TrainResult{Model: m}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, len(w.names))
	gen0 := w.mgr.Generation()
	label0, prob0, _ := w.mgr.View().Model.Classify(row, 0)

	if err := l.Retrain(); err == nil || !strings.Contains(err.Error(), "scaler") {
		t.Fatalf("retrain err = %v, want the gate's scaler-width refusal", err)
	}
	if got := reg.Counter("lifecycle_retrain_total", "outcome", "error").Value(); got != 1 {
		t.Errorf("lifecycle_retrain_total{outcome=error} = %d, want 1", got)
	}
	st := l.Status()
	if w.mgr.Generation() != gen0 || st.ChallengerReady || st.State != StateStable {
		t.Fatalf("refused challenger disturbed the loop: gen=%d st=%+v", w.mgr.Generation(), st)
	}
	if label, prob, _ := w.mgr.View().Model.Classify(row, 0); label != label0 || prob != prob0 {
		t.Errorf("champion answers (%s, %v), answered (%s, %v) before the refused retrain", label, prob, label0, prob0)
	}
}

func TestChaosLifecycleRetrainPanicContained(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
		Faults:  armed(t, FaultRetrain, resilience.FaultSpec{Kind: resilience.FaultPanic, Rate: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = l.Retrain() // must degrade to an error, never crash
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("retrain panic fault: err = %v, want contained panic", err)
	}
	if st := l.Status(); st.ChallengerReady || st.State != StateStable {
		t.Fatalf("panicked retrain mutated the loop: %+v", st)
	}
}

func TestChaosLifecycleRetrainLatencyCompletes(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
		Faults: armed(t, FaultRetrain, resilience.FaultSpec{
			Kind: resilience.FaultLatency, Rate: 1, Latency: 30 * time.Millisecond,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := l.Retrain(); err != nil {
		t.Fatalf("a slow retrain must still land: %v", err)
	}
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Fatalf("latency fault did not wedge the retrain (took %v)", took)
	}
	if st := l.Status(); st.State != StateShadowing || !st.ChallengerReady {
		t.Fatalf("after slow retrain: %+v", st)
	}
}

func TestChaosLifecyclePromoteErrorLeavesChampionServing(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	faults := resilience.NewFaults(1)
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
		Faults:  faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Retrain(); err != nil {
		t.Fatal(err)
	}
	gen0 := w.mgr.Generation()
	if err := faults.Set(FaultPromote, resilience.FaultSpec{Kind: resilience.FaultError, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Decide(); err == nil {
		t.Fatal("promotion succeeded with an error fault armed at rate 1")
	}
	st := l.Status()
	if w.mgr.Generation() != gen0 {
		t.Fatal("a failed promotion advanced the champion generation")
	}
	if st.State != StateShadowing || !st.ChallengerReady {
		t.Fatalf("failed promotion must keep the challenger shadowing for retry: %+v", st)
	}
	// Recovery: disarm, decide again, promotion lands.
	if err := faults.Set(FaultPromote, resilience.FaultSpec{Kind: resilience.FaultError, Rate: 0}); err != nil {
		t.Fatal(err)
	}
	if err := l.Decide(); err != nil {
		t.Fatal(err)
	}
	if w.mgr.Generation() != gen0+1 || l.Status().Promotions != 1 {
		t.Fatal("promotion did not land after the fault cleared")
	}
}

func TestChaosLifecyclePromotePanicContained(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	faults := resilience.NewFaults(1)
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { return res, nil },
		Faults:  faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Retrain(); err != nil {
		t.Fatal(err)
	}
	if err := faults.Set(FaultPromote, resilience.FaultSpec{Kind: resilience.FaultPanic, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	gen0 := w.mgr.Generation()
	err = l.Decide()
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("promote panic fault: err = %v, want contained panic", err)
	}
	if w.mgr.Generation() != gen0 || l.State() != StateShadowing {
		t.Fatal("panicked promotion disturbed the champion or lost the challenger")
	}
}

func TestChaosLifecycleShadowFaultsNeverReachServing(t *testing.T) {
	kinds := []resilience.FaultSpec{
		{Kind: resilience.FaultError, Rate: 1},
		{Kind: resilience.FaultPanic, Rate: 1},
		{Kind: resilience.FaultLatency, Rate: 1, Latency: time.Microsecond},
	}
	for _, spec := range kinds {
		t.Run(string(spec.Kind), func(t *testing.T) {
			w := newTestWorld(t)
			res := w.shiftedTrainResult(t)
			l, err := New(smallCfg(), Options{
				Manager: w.mgr, Baseline: w.base,
				Trainer: func() (TrainResult, error) { return res, nil },
				Faults:  armed(t, FaultShadow, spec),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Retrain(); err != nil {
				t.Fatal(err)
			}
			// Observe must never panic or fail the serving path, whatever
			// the shadow site injects.
			rows, _ := shiftedTraffic(51, 40)
			w.observeAll(context.Background(), l, rows)
			lg := l.LedgerSnapshot()
			checkLedger(t, lg)
			if lg.Eligible != uint64(len(rows)) {
				t.Fatalf("eligible %d for %d observed rows", lg.Eligible, len(rows))
			}
			switch spec.Kind {
			case resilience.FaultError, resilience.FaultPanic:
				if lg.Errors != uint64(len(rows)) || lg.Scored != 0 {
					t.Fatalf("%s faults at rate 1 should error every row: %+v", spec.Kind, lg)
				}
				if st := l.State(); st != StateShadowing {
					t.Fatalf("errored shadow rows advanced the state to %s", st)
				}
			case resilience.FaultLatency:
				if lg.Scored != uint64(len(rows)) || lg.Errors != 0 {
					t.Fatalf("latency faults must still score: %+v", lg)
				}
			}
		})
	}
}

// TestChaosLifecycleBreakerTrips drives repeated failed retrains
// through a real breaker wired as the loop's guard (the server's
// shape) and proves open-state fail-fast: the trainer and fault site
// are not even consulted while the breaker is open, and the loop
// recovers through the half-open probe once faults clear.
func TestChaosLifecycleBreakerTrips(t *testing.T) {
	w := newTestWorld(t)
	res := w.shiftedTrainResult(t)
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	br := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 3, OpenFor: time.Minute, Now: clock,
	})
	faults := resilience.NewFaults(1)
	if err := faults.Set(FaultRetrain, resilience.FaultSpec{Kind: resilience.FaultError, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	l, err := New(smallCfg(), Options{
		Manager: w.mgr, Baseline: w.base,
		Trainer: func() (TrainResult, error) { calls++; return res, nil },
		Faults:  faults,
		Guard:   breakerGuard(br),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Retrain(); err == nil {
			t.Fatal("faulted retrain succeeded")
		}
	}
	// Breaker open: fail fast without touching the control plane.
	if err := l.Retrain(); err != resilience.ErrBreakerOpen {
		t.Fatalf("retrain with open breaker: err = %v, want ErrBreakerOpen", err)
	}
	// Recover: clear the fault, advance past OpenFor, half-open probe
	// succeeds and the challenger installs.
	if err := faults.Set(FaultRetrain, resilience.FaultSpec{Kind: resilience.FaultError, Rate: 0}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if err := l.Retrain(); err != nil {
		t.Fatalf("post-recovery retrain: %v", err)
	}
	if calls != 1 {
		t.Fatalf("trainer ran %d times, want exactly the recovery run", calls)
	}
	if st := l.Status(); st.State != StateShadowing || st.Retrains != 1 {
		t.Fatalf("recovered loop: %+v", st)
	}
}
