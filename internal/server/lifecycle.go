package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/warehouse"
)

// WithLifecycle arms the closed-loop model lifecycle: drift monitoring
// over live classify traffic, shadow retraining, and significance-gated
// champion–challenger promotion. Options left nil are wired to the
// server's own pieces: Manager to the serving model manager, Registry
// to /metrics, Faults to the server's registry, Guard to the shared
// control-plane breaker (the one model reloads trip), Baseline to the
// champion's predictions over the labelled jobs of the warehouse's cut
// at New (the boot cut), and Trainer to a retrain over the last
// TrainWindow labelled jobs of the cut current at each retrain.
func WithLifecycle(cfg lifecycle.Config, opts lifecycle.Options) Option {
	return func(s *Server) { s.lifecyclePending = func() { s.initLifecycle(cfg, opts) } }
}

// initLifecycle finishes the loop's wiring once the server's manager,
// metrics, breaker and faults exist. Called from New, after
// initResilience and manager construction.
func (s *Server) initLifecycle(cfg lifecycle.Config, o lifecycle.Options) {
	if o.Manager == nil {
		o.Manager = s.models
	}
	if o.Registry == nil {
		o.Registry = s.metrics
	}
	if o.Log == nil {
		o.Log = s.log
	}
	if o.Faults == nil {
		o.Faults = s.faults
	}
	if o.Guard == nil {
		o.Guard = s.controlGuard
	}
	if o.Trainer == nil {
		o.Trainer = func() (lifecycle.TrainResult, error) { return s.trainChallenger(cfg) }
	}
	if o.Notify == nil {
		// A buffered poke channel: the host process (cmd/supremm-serve)
		// drains it and calls Step, keeping loop actions off the
		// serving goroutines. Coalescing to one pending poke is fine:
		// Step re-reads the state.
		s.lifecycleCh = make(chan struct{}, 1)
		ch := s.lifecycleCh
		o.Notify = func() {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}
	var err error
	if o.Baseline == nil {
		o.Baseline, err = s.bootBaseline(cfg.Bins)
	}
	if err == nil {
		s.lifecycle, err = lifecycle.New(cfg, o)
	}
	if err != nil {
		s.log.Error("lifecycle loop rejected", "err", err)
		return
	}
	s.log.Info("lifecycle loop armed", "spec", cfg.Spec())
}

// labelled keeps the jobs Lariat named: the rows a challenger trains on.
func labelled(r *warehouse.Record) bool { return !r.Unlabeled() }

// bootBaseline freezes the drift baseline from the champion's
// predictions over the labelled jobs of the boot cut, the cut at New
// (BuildDataset skips the rest), under the champion's featurization.
func (s *Server) bootBaseline(bins int) (*lifecycle.Baseline, error) {
	v := s.models.View()
	if v == nil {
		return nil, errors.New("lifecycle: no champion to freeze a drift baseline from")
	}
	ds, err := core.BuildDataset(s.store.Snapshot().Records, core.LabelByCategory, core.DefaultFeatures())
	if err != nil {
		return nil, err
	}
	if !slices.Equal(v.Model.Features, ds.FeatureNames) {
		return nil, fmt.Errorf("lifecycle: champion's features %v do not match the warehouse featurization %v",
			v.Model.Features, ds.FeatureNames)
	}
	return lifecycle.BaselineFor(ds, v.Model, bins)
}

// trainChallenger retrains on the last TrainWindow labelled jobs of the
// warehouse's current cut, featurized once per retrain and split by
// trainWindow.
func (s *Server) trainChallenger(cfg lifecycle.Config) (lifecycle.TrainResult, error) {
	win, train, eval := s.trainWindow(cfg.TrainWindow)
	ds, err := core.BuildDataset(win, core.LabelByCategory, core.DefaultFeatures())
	if err != nil {
		return lifecycle.TrainResult{}, err
	}
	return lifecycle.TrainChallenger(ds, train, eval, cfg)
}

// trainWindow is a retrain's window, the last n labelled jobs of the
// current cut, split by core.HeldOut: the held-out jobs are the gate's
// evaluation rows, the rest train. supremm-serve's boot champion trains
// only on jobs it keeps too; a champion loaded from a snapshot was
// trained elsewhere and is outside that.
func (s *Server) trainWindow(n int) (win warehouse.Records, train, eval []int) {
	win = trailing(s.store.Snapshot().Filter(labelled), n)
	for i, r := range win {
		if core.HeldOut(r.JobID) {
			eval = append(eval, i)
		} else {
			train = append(train, i)
		}
	}
	return win, train, eval
}

// Lifecycle exposes the loop (nil when WithLifecycle was not used); the
// host process uses it for signal-driven retrains and Step-draining.
func (s *Server) Lifecycle() *lifecycle.Loop { return s.lifecycle }

// LifecycleNotify is the loop's poke channel: a receive means the loop
// wants a Step (drift fired, or the shadow window filled). Nil when the
// lifecycle is disabled or the caller supplied its own Notify.
func (s *Server) LifecycleNotify() <-chan struct{} { return s.lifecycleCh }

// lifecycleOp serves one lifecycle endpoint: 503 when the loop is not
// armed, otherwise run the control-plane step (nil for the read-only
// status route) and answer with the loop's full state snapshot, or the
// step's failure through controlError. retrain forces a challenger
// retrain and leaves the loop shadowing it; promote runs the promotion
// gate now (a gate rejection is a 200 whose reason is in the status);
// rollback swaps the pre-promotion champion back in.
func (s *Server) lifecycleOp(name string, step func(*lifecycle.Loop) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		l := s.lifecycle
		if l == nil {
			s.writeError(w, http.StatusServiceUnavailable, "lifecycle loop not enabled")
			return
		}
		if step != nil {
			if err := step(l); err != nil {
				s.log.Warn("lifecycle "+name+" failed", "err", err)
				s.controlError(w, "lifecycle "+name, http.StatusInternalServerError, err)
				return
			}
		}
		s.writeJSON(w, http.StatusOK, l.Status())
	}
}
