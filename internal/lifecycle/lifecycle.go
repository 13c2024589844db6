package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/resilience"
)

// Loop states. The machine is strictly ordered per cycle:
// stable -> drifting (alarm) -> shadowing (challenger live in shadow)
// -> promoting (decision window full) -> stable (promoted or demoted).
// A failed retrain also ends a drifting cycle in stable.
const (
	StateStable    = "stable"
	StateDrifting  = "drifting"
	StateShadowing = "shadowing"
	StatePromoting = "promoting"
)

// stateOrdinal maps states onto the lifecycle_state gauge.
func stateOrdinal(s string) float64 {
	switch s {
	case StateDrifting:
		return 1
	case StateShadowing:
		return 2
	case StatePromoting:
		return 3
	}
	return 0
}

// Fault-injection site names the loop consults when a resilience.Faults
// registry is wired in (same -faults flag as the serving sites).
const (
	// FaultRetrain fires inside the guarded challenger retrain, before
	// the trainer runs: error faults fail the retrain (driving the
	// shared control-plane breaker), latency faults wedge it.
	FaultRetrain = "lifecycle.retrain"
	// FaultPromote fires inside the guarded promotion swap, before the
	// manager is touched: error faults fail the promotion, leaving the
	// champion serving.
	FaultPromote = "lifecycle.promote"
	// FaultShadow fires once per shadow-scored row, after the served
	// answer is already decided: error faults count in the ledger's
	// error column, panic faults prove the shadow path's isolation
	// (a shadow panic must never fail the serving request).
	FaultShadow = "lifecycle.shadow"
)

// Sentinel errors of the control-plane methods; the admin endpoints
// answer ErrNoChallenger and ErrNoHistory with 409.
var (
	// ErrNoTrainer means the loop was built without a Trainer, which
	// server.WithLifecycle never does.
	ErrNoTrainer = errors.New("lifecycle: no trainer configured")
	// ErrNoChallenger means Decide was called with nothing shadowing.
	ErrNoChallenger = errors.New("lifecycle: no challenger to decide on")
	// ErrNoHistory means Rollback was called with no prior champion.
	ErrNoHistory = errors.New("lifecycle: no previous champion to roll back to")
)

// TrainResult is what a Trainer hands back: the challenger, the labeled
// evaluation window the promotion gate scores both models on (Retrain
// refuses an empty one), and a fresh drift baseline to install
// if the challenger is promoted (nil keeps the old baseline).
type TrainResult struct {
	Model    *core.JobClassifier
	Eval     *dataset.Dataset
	Baseline *Baseline
}

// Trainer retrains a challenger on the most recent TrainWindow of
// warehouse rows. It runs under the control-plane guard (breaker), off
// the per-row path.
type Trainer func() (TrainResult, error)

// Options wires a Loop into its host process.
type Options struct {
	// Manager is the champion's model manager; promotion goes through
	// its schema-validated Swap. Required.
	Manager *core.ModelManager
	// Trainer builds challengers. Required for retraining; a loop
	// without one only monitors drift.
	Trainer Trainer
	// Baseline is the training-time drift reference. Required.
	Baseline *Baseline
	// Registry receives lifecycle_* and drift_* metrics; may be nil.
	Registry *obs.Registry
	// Log may be nil (the obs logger is nil-safe).
	Log *obs.Logger
	// Guard wraps the control-plane mutations (retrain, promote,
	// rollback); the server points it at the shared reload breaker.
	// Nil runs them unguarded.
	Guard func(op func() error) error
	// Faults arms the lifecycle.* injection sites; may be nil.
	Faults *resilience.Faults
	// Notify is poked (if non-nil) whenever the loop wants a Step() —
	// drift fired or the shadow window filled. It must not block; the
	// server points it at a buffered channel its lifecycle goroutine
	// drains, and the simulation drives Step itself.
	Notify func()
}

// Ledger is the shadow-scoring conservation ledger. Every row admitted
// while a challenger is installed lands in exactly one disposition:
//
//	Eligible == Scored + Errors, and Scored == Agree + Disagree
//
// so shadow activity reconciles exactly against lifecycle_* metrics and
// the flight recorder's shadow tallies.
type Ledger struct {
	Eligible uint64 `json:"eligible"`
	Scored   uint64 `json:"scored"`
	Errors   uint64 `json:"errors"`
	Agree    uint64 `json:"agree"`
	Disagree uint64 `json:"disagree"`
}

// Check asserts the ledger's conservation identity.
func (l Ledger) Check() error {
	if l.Eligible != l.Scored+l.Errors {
		return fmt.Errorf("lifecycle: ledger unbalanced: eligible %d != scored %d + errors %d",
			l.Eligible, l.Scored, l.Errors)
	}
	if l.Scored != l.Agree+l.Disagree {
		return fmt.Errorf("lifecycle: ledger unbalanced: scored %d != agree %d + disagree %d",
			l.Scored, l.Agree, l.Disagree)
	}
	return nil
}

// Decision is one promotion gate evaluation: both models scored on the
// labeled evaluation window, a McNemar paired test over their
// disagreements, and the paper's threshold sweep for the winner.
type Decision struct {
	EvalRows int     `json:"evalRows"`
	ChampAcc float64 `json:"championAccuracy"`
	ChallAcc float64 `json:"challengerAccuracy"`
	// B counts rows the champion got right and the challenger wrong;
	// C the reverse. The test statistic only sees disagreements.
	B int `json:"b"`
	C int `json:"c"`
	// ChiSq is the continuity-corrected McNemar statistic; P its
	// chi-squared(1) tail probability.
	ChiSq float64 `json:"chiSq"`
	P     float64 `json:"p"`
	// Promoted records the verdict; Reason says why in one line.
	Promoted bool   `json:"promoted"`
	Reason   string `json:"reason"`
	// Sweep is the paper's threshold sweep (Figures 1/3/4) for the
	// challenger on the evaluation window — the live rendition of the
	// offline threshold analysis the promotion criterion descends from.
	Sweep []eval.ThresholdPoint `json:"sweep,omitempty"`
}

// Status is the /api/lifecycle snapshot.
type Status struct {
	State           string  `json:"state"`
	Auto            bool    `json:"auto"`
	Generation      uint64  `json:"generation"`
	RowsObserved    uint64  `json:"rowsObserved"`
	WindowRows      int     `json:"windowRows"`
	CooldownLeft    int     `json:"cooldownLeft"`
	DriftEvents     uint64  `json:"driftEvents"`
	MaxFeaturePSI   float64 `json:"maxFeaturePSI"`
	DriftFeature    string  `json:"driftFeature,omitempty"`
	PosteriorPSI    float64 `json:"posteriorPSI"`
	ChallengerReady bool    `json:"challengerReady"`
	ShadowScored    uint64  `json:"shadowScored"`
	Retrains        uint64  `json:"retrains"`
	Promotions      uint64  `json:"promotions"`
	Demotions       uint64  `json:"demotions"`
	Rollbacks       uint64  `json:"rollbacks"`
	RollbackReady   bool    `json:"rollbackReady"`
	Ledger          Ledger  `json:"ledger"`
	// Transitions since boot, oldest first (bounded).
	Transitions  []Transition `json:"transitions,omitempty"`
	LastDecision *Decision    `json:"lastDecision,omitempty"`
	Spec         string       `json:"spec"`
}

// Transition is one state-machine edge, stamped with the observed-row
// counter (the loop's deterministic clock).
type Transition struct {
	Row    uint64 `json:"row"`
	From   string `json:"from"`
	To     string `json:"to"`
	Reason string `json:"reason"`
}

// maxTransitions bounds the transition log kept for /api/lifecycle.
const maxTransitions = 64

// window is the sliding drift window over the most recent rows. It keeps
// no row: each slot of the fixed-capacity ring holds the row's baseline
// bin per feature and the champion's predicted class, and the per-feature
// bin counts and class counts are kept in step with the ring (add on
// enter, subtract on evict). A drift evaluation therefore reads
// Features x Bins integers instead of re-binning Window x Features
// values, and adding a row allocates nothing. The counts are the ones
// Baseline.FeaturePSI would recount from the rows, so every statistic is
// bit-identical to that reference form.
type window struct {
	base       *Baseline // whose edges the bin ids index; rebound by reset
	bins       []uint16  // capacity x features bin ids, slot-major
	cls        []int     // predicted class per slot, -1 outside the vocabulary
	featCounts []int     // features x base.Bins live bin counts, feature-major
	clsCounts  []int     // live rows per predicted class
	next       int
	n          int
}

func newWindow(capacity int, base *Baseline) *window {
	w := &window{cls: make([]int, capacity)}
	w.reset(base)
	return w
}

// reset empties the window and binds it to base: bin ids are only
// meaningful against the edges that produced them, so the loop resets
// the window whenever it changes its drift reference. Resets are rare
// (promotion, rollback), so the tables are simply rebuilt to base's shape.
func (w *window) reset(base *Baseline) {
	p := len(base.Features)
	w.base, w.next, w.n = base, 0, 0
	w.bins = make([]uint16, len(w.cls)*p)
	w.featCounts = make([]int, p*base.Bins)
	w.clsCounts = make([]int, len(base.Classes))
}

func (w *window) add(row []float64, cls int) {
	p, nb := len(w.base.Features), w.base.Bins
	slot := w.bins[w.next*p : (w.next+1)*p]
	if w.n == len(w.cls) {
		for f, b := range slot {
			w.featCounts[f*nb+int(b)]--
		}
		if c := w.cls[w.next]; c >= 0 {
			w.clsCounts[c]--
		}
	} else {
		w.n++
	}
	for f := range slot {
		b := binOf(w.base.Edges[f], row[f])
		slot[f] = uint16(b)
		w.featCounts[f*nb+b]++
	}
	w.cls[w.next] = cls
	if cls >= 0 {
		w.clsCounts[cls]++
	}
	w.next = (w.next + 1) % len(w.cls)
}

// featurePSI is Baseline.FeaturePSI over the live rows, read from the
// running counts.
func (w *window) featurePSI() []float64 {
	out := make([]float64, len(w.base.Features))
	if w.n == 0 {
		return out
	}
	nb := w.base.Bins
	for f := range out {
		out[f] = psiCounts(w.featCounts[f*nb:(f+1)*nb], w.n, w.base.FeatProp[f])
	}
	return out
}

// posteriorPSI is Baseline.PosteriorPSI over the live rows' predicted
// classes.
func (w *window) posteriorPSI() float64 {
	return w.base.PosteriorPSI(w.clsCounts, w.n)
}

// Loop is the closed-loop lifecycle controller. Observe is the per-row
// hot hook: a short locked ring append, with any shadow inference run
// off the lock so concurrent requests never serialize behind a model
// evaluation. The state actions (retrain, decide, promote, rollback)
// run through Step or the admin methods, serialized by opMu and
// guarded by the shared control-plane breaker.
type Loop struct {
	cfg     Config
	mgr     *core.ModelManager
	trainer Trainer
	guard   func(op func() error) error
	faults  *resilience.Faults
	log     *obs.Logger
	notify  func()

	// opMu serializes the control-plane operations (Retrain, Decide,
	// Rollback) end to end. Each one reads loop state, runs a guarded
	// multi-step mutation off the row path, then writes state back;
	// interleaving two of them (an admin endpoint racing the auto Step
	// goroutine) could double-promote one challenger or silently discard
	// a freshly trained one. mu stays the short-hold lock shared with
	// Observe; opMu is always acquired first and never touched by the
	// per-row path.
	opMu sync.Mutex

	mu          sync.Mutex
	base        *Baseline
	state       string
	win         *window
	rowsSeen    uint64
	sinceEval   int
	cooldown    int
	driftEvents uint64
	maxFeatPSI  float64
	driftFeat   string
	postPSI     float64

	challenger *core.JobClassifier
	// challengerEpoch bumps whenever challenger is installed or cleared,
	// so a shadow verdict computed off-lock can detect that its
	// challenger was promoted or demoted mid-flight and drop itself
	// instead of landing in the wrong ledger.
	challengerEpoch uint64
	evalSet         *dataset.Dataset
	pendingBase     *Baseline // installed as the drift reference on promotion
	shadowScored    uint64    // scored rows since the current challenger installed
	prev            *core.JobClassifier
	prevBase        *Baseline // the outgoing baseline, restored on rollback

	ledger      Ledger
	retrains    uint64
	promotions  uint64
	demotions   uint64
	rollbacks   uint64
	transitions []Transition
	lastDec     *Decision

	mState       *obs.Gauge
	mFeatPSI     *obs.Gauge
	mPostPSI     *obs.Gauge
	mDriftEvents *obs.Counter
	mEligible    *obs.Counter
	mScored      *obs.Counter
	mAgree       *obs.Counter
	mDisagree    *obs.Counter
	mErrors      *obs.Counter
	mRetrainOK   *obs.Counter
	mRetrainErr  *obs.Counter
	mPromoteOK   *obs.Counter
	mPromoteRej  *obs.Counter
	mPromoteErr  *obs.Counter
	mRollbackOK  *obs.Counter
	mRollbackErr *obs.Counter
	mDemotions   *obs.Counter
}

// New builds a Loop in the stable state. cfg must Validate.
func New(cfg Config, opts Options) (*Loop, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Manager == nil {
		return nil, errors.New("lifecycle: a model manager is required")
	}
	if opts.Baseline == nil {
		return nil, errors.New("lifecycle: a drift baseline is required")
	}
	guard := opts.Guard
	if guard == nil {
		guard = func(op func() error) error { return op() }
	}
	l := &Loop{
		cfg:     cfg,
		mgr:     opts.Manager,
		trainer: opts.Trainer,
		guard:   guard,
		faults:  opts.Faults,
		log:     opts.Log,
		notify:  opts.Notify,
		base:    opts.Baseline,
		state:   StateStable,
		win:     newWindow(cfg.Window, opts.Baseline),
	}
	reg := opts.Registry
	reg.Help("lifecycle_state", "Lifecycle state machine: 0 stable, 1 drifting, 2 shadowing, 3 promoting.")
	reg.Help("drift_feature_psi_max", "Largest per-feature PSI at the last drift evaluation.")
	reg.Help("drift_posterior_psi", "PSI of the predicted-class mix vs the training baseline at the last drift evaluation.")
	reg.Help("drift_events_total", "Drift alarms fired (feature or posterior PSI over threshold).")
	reg.Help("lifecycle_shadow_rows_total", "Shadow-scoring ledger by disposition (eligible == scored + error; scored == agree + disagree).")
	reg.Help("lifecycle_retrain_total", "Challenger retrains by outcome.")
	reg.Help("lifecycle_promote_total", "Promotion attempts by outcome (ok, rejected by the gate, error).")
	reg.Help("lifecycle_rollback_total", "Rollbacks to the pre-promotion champion by outcome.")
	reg.Help("lifecycle_demotions_total", "Challengers discarded by a failed promotion gate.")
	l.mState = reg.Gauge("lifecycle_state")
	l.mFeatPSI = reg.Gauge("drift_feature_psi_max")
	l.mPostPSI = reg.Gauge("drift_posterior_psi")
	l.mDriftEvents = reg.Counter("drift_events_total")
	l.mEligible = reg.Counter("lifecycle_shadow_rows_total", "disposition", "eligible")
	l.mScored = reg.Counter("lifecycle_shadow_rows_total", "disposition", "scored")
	l.mAgree = reg.Counter("lifecycle_shadow_rows_total", "disposition", "agree")
	l.mDisagree = reg.Counter("lifecycle_shadow_rows_total", "disposition", "disagree")
	l.mErrors = reg.Counter("lifecycle_shadow_rows_total", "disposition", "error")
	l.mRetrainOK = reg.Counter("lifecycle_retrain_total", "outcome", "ok")
	l.mRetrainErr = reg.Counter("lifecycle_retrain_total", "outcome", "error")
	l.mPromoteOK = reg.Counter("lifecycle_promote_total", "outcome", "ok")
	l.mPromoteRej = reg.Counter("lifecycle_promote_total", "outcome", "rejected")
	l.mPromoteErr = reg.Counter("lifecycle_promote_total", "outcome", "error")
	l.mRollbackOK = reg.Counter("lifecycle_rollback_total", "outcome", "ok")
	l.mRollbackErr = reg.Counter("lifecycle_rollback_total", "outcome", "error")
	l.mDemotions = reg.Counter("lifecycle_demotions_total")
	return l, nil
}

// transitionLocked records a state edge. Caller holds l.mu.
func (l *Loop) transitionLocked(to, reason string) {
	if l.state == to {
		return
	}
	t := Transition{Row: l.rowsSeen, From: l.state, To: to, Reason: reason}
	l.transitions = append(l.transitions, t)
	if len(l.transitions) > maxTransitions {
		l.transitions = l.transitions[len(l.transitions)-maxTransitions:]
	}
	l.state = to
	l.mState.Set(stateOrdinal(to))
	l.log.Info("lifecycle transition", "from", t.From, "to", t.To, "row", t.Row, "reason", reason)
}

// runOp executes one control-plane operation with panics contained: a
// panic inside retraining or promotion degrades to an error the
// guard's breaker can record; it must never crash the host process.
func runOp(op func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("lifecycle: control-plane panic: %v", r)
		}
	}()
	return op()
}

// poke wakes the host's Step driver; safe with a nil notifier.
func (l *Loop) poke() {
	if l.notify != nil {
		l.notify()
	}
}

// Observe is the per-row serving hook: every admitted classify row
// lands here with the champion's predicted label. It appends to the
// drift window, shadow-scores the challenger when one is installed
// (never touching the served answer — an injected shadow panic is
// swallowed here), and periodically evaluates the drift statistics.
// The ctx carries the request's wide event (nil-safe), which receives
// shadow tallies and fault hits.
func (l *Loop) Observe(ctx context.Context, row []float64, predLabel string) {
	if l == nil {
		return
	}
	fe := flight.From(ctx)
	l.mu.Lock()
	l.rowsSeen++
	cls, ok := l.base.ClassIndex(predLabel)
	if !ok {
		cls = -1
	}
	l.win.add(row, cls)
	if l.cooldown > 0 {
		l.cooldown--
	}
	var chall *core.JobClassifier
	var epoch uint64
	if l.challenger != nil && (l.state == StateShadowing || l.state == StatePromoting) {
		chall, epoch = l.challenger, l.challengerEpoch
	}
	l.sinceEval++
	if l.state == StateStable && l.cooldown == 0 && l.win.n >= l.cfg.MinRows && l.sinceEval >= l.cfg.Every {
		l.sinceEval = 0
		l.evaluateDriftLocked()
	}
	l.mu.Unlock()
	if chall == nil {
		return
	}

	// Challenger inference runs off the mutex: a model evaluation (the
	// stacked ensemble runs three compiled bases and a softmax per row)
	// costs far more than the ring append, and holding the loop lock
	// through it would serialize every concurrent serving request behind
	// it. Model prediction is read-only, so concurrent rows may score
	// simultaneously.
	agree, err := l.shadowPredict(fe, chall, row, predLabel)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.challengerEpoch != epoch {
		// The challenger was promoted or demoted while this row was in
		// flight; its verdict belongs to a retired ledger. Drop the row
		// entirely (no Eligible either) so the conservation identity
		// Eligible == Scored + Errors still holds exactly.
		return
	}
	l.recordShadowLocked(fe, agree, err)
	if l.state == StateShadowing && l.shadowScored >= uint64(l.cfg.ShadowMin) {
		l.transitionLocked(StatePromoting, fmt.Sprintf("shadow window full (%d scored)", l.shadowScored))
		l.poke()
	}
}

// shadowPredict scores one row on the challenger, with the
// lifecycle.shadow fault site armed and panics contained: the serving
// answer is already decided, so nothing that happens here may escape.
// Runs off the loop mutex; it touches only immutable loop fields.
func (l *Loop) shadowPredict(fe *flight.Active, chall *core.JobClassifier, row []float64, champLabel string) (agree bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("lifecycle: shadow panic: %v", r)
		}
	}()
	if fired, ferr := l.faults.InjectReport(FaultShadow); fired {
		fe.MarkFault()
		if ferr != nil {
			return false, ferr
		}
	}
	cls := chall.Predict(row)
	return chall.Classes()[cls] == champLabel, nil
}

// recordShadowLocked lands one completed shadow verdict in the ledger.
// Caller holds l.mu and has already checked the challenger epoch.
func (l *Loop) recordShadowLocked(fe *flight.Active, agree bool, err error) {
	l.ledger.Eligible++
	l.mEligible.Inc()
	if err != nil {
		l.ledger.Errors++
		l.mErrors.Inc()
		return
	}
	l.ledger.Scored++
	l.shadowScored++
	l.mScored.Inc()
	if agree {
		l.ledger.Agree++
		l.mAgree.Inc()
	} else {
		l.ledger.Disagree++
		l.mDisagree.Inc()
	}
	fe.AddShadow(agree)
}

// evaluateDriftLocked recomputes the drift statistics from the window's
// running counts and fires the alarm when either monitor crosses its
// threshold.
func (l *Loop) evaluateDriftLocked() {
	l.maxFeatPSI, l.driftFeat = 0, ""
	for f, v := range l.win.featurePSI() {
		if v > l.maxFeatPSI {
			l.maxFeatPSI = v
			l.driftFeat = l.base.Features[f]
		}
	}
	l.postPSI = l.win.posteriorPSI()
	l.mFeatPSI.Set(l.maxFeatPSI)
	l.mPostPSI.Set(l.postPSI)
	featAlarm := l.maxFeatPSI >= l.cfg.DriftThreshold
	postAlarm := l.postPSI >= l.cfg.PosteriorThreshold
	if !featAlarm && !postAlarm {
		return
	}
	l.driftEvents++
	l.mDriftEvents.Inc()
	reason := fmt.Sprintf("feature %s PSI %.4f >= %g", l.driftFeat, l.maxFeatPSI, l.cfg.DriftThreshold)
	if !featAlarm {
		reason = fmt.Sprintf("posterior PSI %.4f >= %g", l.postPSI, l.cfg.PosteriorThreshold)
	}
	l.transitionLocked(StateDrifting, reason)
	l.poke()
}

// Step performs at most one pending automatic action: retrain when
// drifting, decide when the shadow window is full. The server's
// lifecycle goroutine calls it on Notify; the simulation calls it at
// tick boundaries, which keeps the whole arc deterministic. Manual
// (Auto=false) loops ignore Step; the admin endpoints drive them.
func (l *Loop) Step() {
	l.mu.Lock()
	state, auto := l.state, l.cfg.Auto
	l.mu.Unlock()
	if !auto {
		return
	}
	switch state {
	case StateDrifting:
		_ = l.Retrain()
	case StatePromoting:
		_ = l.Decide()
	}
}

// Retrain trains a challenger through the control-plane guard and
// installs it in shadow. Callable from any state (the admin endpoint
// forces retrains); on success the loop is shadowing. A failure ends a
// drifting cycle in stable behind the cooldown, as a lost gate does.
func (l *Loop) Retrain() error {
	if l.trainer == nil {
		return ErrNoTrainer
	}
	l.opMu.Lock()
	defer l.opMu.Unlock()
	var res TrainResult
	err := l.guard(func() error {
		return runOp(func() error {
			if err := l.faults.Inject(FaultRetrain); err != nil {
				return err
			}
			var err error
			res, err = l.trainer()
			return err
		})
	})
	switch {
	case err != nil:
	case res.Model == nil || res.Eval == nil || res.Eval.Len() == 0:
		err = errors.New("lifecycle: trainer returned no model or no evaluation row")
	// The promotion gate compares predictions as string labels, but the
	// challenger's threshold sweep still scores Eval by class index, so
	// the challenger must share the evaluation window's vocabulary.
	case !slices.Equal(res.Model.Classes(), res.Eval.ClassNames):
		err = fmt.Errorf("lifecycle: challenger classes %v do not match the evaluation window's %v",
			res.Model.Classes(), res.Eval.ClassNames)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.mRetrainErr.Inc()
		l.log.Warn("lifecycle retrain failed", "err", err)
		if l.state == StateDrifting {
			l.toStableLocked("retrain failed: " + err.Error())
		}
		return err
	}
	l.retrains++
	l.mRetrainOK.Inc()
	l.challenger = res.Model
	l.challengerEpoch++
	l.evalSet = res.Eval
	l.pendingBase = res.Baseline
	l.shadowScored = 0
	l.transitionLocked(StateShadowing, fmt.Sprintf("challenger trained (%s, %d eval rows)", res.Model.Algo, res.Eval.Len()))
	return nil
}

// Decide runs the promotion gate: score champion and challenger on the
// labeled evaluation window, McNemar over the disagreements, promote
// through the guarded swap iff the challenger wins significantly by
// the configured margin. A failed gate demotes (discards) the
// challenger. Requires an installed challenger, whose evaluation window
// Retrain made sure is not empty.
func (l *Loop) Decide() error {
	l.opMu.Lock()
	defer l.opMu.Unlock()
	l.mu.Lock()
	challenger, evalSet := l.challenger, l.evalSet
	champView := l.mgr.View()
	l.mu.Unlock()
	if challenger == nil {
		return ErrNoChallenger
	}
	if champView == nil {
		return errors.New("lifecycle: no champion loaded")
	}
	dec := decide(champView.Model, challenger, evalSet, l.cfg)

	if !dec.Promoted {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.lastDec = &dec
		l.mPromoteRej.Inc()
		l.demotions++
		l.mDemotions.Inc()
		l.toStableLocked("gate failed: " + dec.Reason)
		return nil
	}

	err := l.guard(func() error {
		return runOp(func() error {
			if err := l.faults.Inject(FaultPromote); err != nil {
				return err
			}
			_, err := l.mgr.Swap(challenger)
			return err
		})
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastDec = &dec
	if err != nil {
		l.mPromoteErr.Inc()
		l.log.Warn("lifecycle promotion failed", "err", err)
		// The decision stands but the swap did not happen; the
		// challenger keeps shadowing, and a recovered control plane
		// retries the promotion after one more shadow window.
		l.shadowScored = 0
		l.transitionLocked(StateShadowing, "promotion error: "+err.Error())
		return err
	}
	l.promotions++
	l.mPromoteOK.Inc()
	// Exactly one generation of rollback history: the outgoing champion
	// together with the drift baseline it was being judged against, so a
	// rollback restores the whole monitoring regime, not just the model.
	l.prev, l.prevBase = champView.Model, l.base
	if l.pendingBase != nil {
		l.base = l.pendingBase
	}
	l.win.reset(l.base)
	l.sinceEval = 0
	l.toStableLocked("promoted: " + dec.Reason)
	return nil
}

// toStableLocked ends a cycle (promotion, demotion, rollback, failed
// retrain): the challenger goes, and drift is judged again after the
// cooldown. Caller holds l.mu.
func (l *Loop) toStableLocked(reason string) {
	l.challenger, l.evalSet, l.pendingBase = nil, nil, nil
	l.challengerEpoch++
	l.cooldown = l.cfg.Cooldown
	l.transitionLocked(StateStable, reason)
}

// decide is the pure promotion gate (deterministic; the simulation
// golden pins its outputs bit-for-bit).
func decide(champ, chall *core.JobClassifier, ev *dataset.Dataset, cfg Config) Decision {
	dec := Decision{EvalRows: ev.Len()}
	// Predictions are compared to the truth as string labels, never as
	// class indices: the champion was trained on its own vocabulary,
	// which need not index (or even cover) the same classes as the
	// evaluation window's ClassNames, built from whatever labels the
	// recent sliding window happened to contain. A class the champion
	// has never seen simply counts as a champion miss.
	champClasses, challClasses := champ.Classes(), chall.Classes()
	var champRight, challRight int
	for i, row := range ev.X {
		truth := ev.Label(i)
		cr := champClasses[champ.Predict(row)] == truth
		hr := challClasses[chall.Predict(row)] == truth
		if cr {
			champRight++
		}
		if hr {
			challRight++
		}
		switch {
		case cr && !hr:
			dec.B++
		case !cr && hr:
			dec.C++
		}
	}
	n := float64(ev.Len())
	dec.ChampAcc = float64(champRight) / n
	dec.ChallAcc = float64(challRight) / n
	if dec.B+dec.C > 0 {
		d := math.Abs(float64(dec.B-dec.C)) - 1
		if d < 0 {
			d = 0
		}
		dec.ChiSq = d * d / float64(dec.B+dec.C)
	}
	// Chi-squared(1) tail probability: P(X >= x) = erfc(sqrt(x/2)).
	dec.P = math.Erfc(math.Sqrt(dec.ChiSq / 2))
	dec.Sweep = eval.ThresholdCurve(chall.Score(ev), eval.DefaultThresholds())
	switch {
	case dec.C <= dec.B:
		dec.Promoted = false
		dec.Reason = fmt.Sprintf("challenger does not win the disagreements (b=%d, c=%d)", dec.B, dec.C)
	case dec.ChallAcc-dec.ChampAcc < cfg.Margin:
		dec.Promoted = false
		dec.Reason = fmt.Sprintf("accuracy margin %.4f below required %g", dec.ChallAcc-dec.ChampAcc, cfg.Margin)
	case dec.P > cfg.Alpha:
		dec.Promoted = false
		dec.Reason = fmt.Sprintf("not significant (p=%.4f > alpha=%g)", dec.P, cfg.Alpha)
	default:
		dec.Promoted = true
		dec.Reason = fmt.Sprintf("challenger wins: acc %.4f vs %.4f, p=%.4f <= alpha=%g",
			dec.ChallAcc, dec.ChampAcc, dec.P, cfg.Alpha)
	}
	return dec
}

// Rollback swaps the pre-promotion champion back in through the guard.
// Exactly one generation of history is kept: a second rollback without
// an intervening promotion fails.
func (l *Loop) Rollback() error {
	l.opMu.Lock()
	defer l.opMu.Unlock()
	l.mu.Lock()
	prev, prevBase := l.prev, l.prevBase
	l.mu.Unlock()
	if prev == nil {
		return ErrNoHistory
	}
	err := l.guard(func() error {
		return runOp(func() error {
			_, err := l.mgr.Swap(prev)
			return err
		})
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.mRollbackErr.Inc()
		return err
	}
	l.rollbacks++
	l.mRollbackOK.Inc()
	// Drift must be judged against the reinstated champion's own
	// reference, not the baseline the promotion installed for the model
	// just removed.
	l.base = prevBase
	l.prev, l.prevBase = nil, nil
	l.win.reset(l.base)
	l.sinceEval = 0
	l.toStableLocked("rolled back to previous champion")
	return nil
}

// Status snapshots the loop for /api/lifecycle and the simulation
// trace.
func (l *Loop) Status() Status {
	if l == nil {
		return Status{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Status{
		State:           l.state,
		Auto:            l.cfg.Auto,
		Generation:      l.mgr.Generation(),
		RowsObserved:    l.rowsSeen,
		WindowRows:      l.win.n,
		CooldownLeft:    l.cooldown,
		DriftEvents:     l.driftEvents,
		MaxFeaturePSI:   l.maxFeatPSI,
		DriftFeature:    l.driftFeat,
		PosteriorPSI:    l.postPSI,
		ChallengerReady: l.challenger != nil,
		ShadowScored:    l.shadowScored,
		Retrains:        l.retrains,
		Promotions:      l.promotions,
		Demotions:       l.demotions,
		Rollbacks:       l.rollbacks,
		RollbackReady:   l.prev != nil,
		Ledger:          l.ledger,
		Transitions:     append([]Transition(nil), l.transitions...),
		LastDecision:    l.lastDec,
		Spec:            l.cfg.Spec(),
	}
	return st
}
