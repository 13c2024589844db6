// Package lifecycle closes the serving loop: it watches live classify
// traffic for feature and posterior drift against a training-time
// baseline, retrains a challenger on drift (or operator demand), scores
// the challenger in shadow behind the serving champion, and promotes it
// through the schema-validated ModelManager swap when a paired
// significance test over a labeled evaluation window says the
// challenger wins. The state machine is
//
//	stable -> drifting -> shadowing -> promoting -> stable
//
// and every edge is observable (lifecycle_* metrics, /api/lifecycle)
// and fault-injectable (lifecycle.retrain / lifecycle.promote /
// lifecycle.shadow). A deterministic simulation harness (sim_test.go)
// replays the whole arc bit-identically at any worker count.
package lifecycle

import (
	"fmt"
	"math"

	"repro/internal/kvspec"
)

// Config parameterizes the loop. The canonical wire form is the spec
// string (ParseSpec / Spec) the -lifecycle flag compiles down to; the
// round-trip ParseSpec(c.Spec()) == c is fuzz-pinned.
type Config struct {
	// Window is the sliding drift window: the most recent Window
	// admitted classify rows (and the champion's predicted classes for
	// them) are what drift is measured over.
	Window int
	// Bins is the quantile bin count of the PSI statistic.
	Bins int
	// MinRows is how full the window must be before drift is evaluated.
	MinRows int
	// Every evaluates drift once per this many observed rows (amortizes
	// the O(Features x Bins) statistic off the per-row path).
	Every int
	// DriftThreshold is the per-feature PSI alarm level: drift fires
	// when any feature's PSI meets it.
	DriftThreshold float64
	// PosteriorThreshold is the alarm level for PSI over the predicted
	// class mix (concept drift the feature marginals can miss).
	PosteriorThreshold float64
	// ShadowMin is how many shadow-scored rows must accumulate before
	// the loop moves from shadowing to the promotion decision.
	ShadowMin int
	// Alpha is the significance level of the McNemar paired test the
	// promotion gate runs over champion/challenger disagreements.
	Alpha float64
	// Margin is the minimum evaluation-accuracy margin (challenger
	// minus champion) promotion additionally requires.
	Margin float64
	// Cooldown is how many observed rows drift stays disarmed after a
	// promotion, demotion, or rollback (the window refills with traffic
	// scored by the new regime before it is judged again).
	Cooldown int
	// TrainWindow is the sliding window of most-recent warehouse rows
	// the retrainer fits the challenger on.
	TrainWindow int
	// Algo is the challenger family: nb, rf, svm, or stack (the
	// NB+RF+SVM ensemble under a softmax meta-learner).
	Algo string
	// Seed drives retraining and the simulation harness.
	Seed uint64
	// Auto lets the loop act on its own: retrain when drift fires and
	// decide promotion when the shadow window fills. When false the
	// loop only observes; retrain/promote wait for the admin endpoints.
	Auto bool
}

// Defaults for spec keys the caller omits.
const (
	defWindow    = 256
	defBins      = 10
	defEvery     = 32
	defDrift     = 0.2
	defShadowMin = 200
	defAlpha     = 0.05
	defCooldown  = 256
	defTrain     = 4096
	defAlgo      = "stack"
)

// DefaultConfig returns the serving defaults (Auto on).
func DefaultConfig() Config {
	return Config{
		Window:             defWindow,
		Bins:               defBins,
		MinRows:            defWindow,
		Every:              defEvery,
		DriftThreshold:     defDrift,
		PosteriorThreshold: defDrift,
		ShadowMin:          defShadowMin,
		Alpha:              defAlpha,
		Margin:             0,
		Cooldown:           defCooldown,
		TrainWindow:        defTrain,
		Algo:               defAlgo,
		Auto:               true,
	}
}

// validAlgo matches core's Algorithm vocabulary (plus the stack).
func validAlgo(a string) bool {
	switch a {
	case "nb", "rf", "svm", "stack":
		return true
	}
	return false
}

// Validate checks a config for use by New.
func (c Config) Validate() error {
	switch {
	case c.Window < 8 || c.Window > 1<<20:
		return fmt.Errorf("lifecycle: window %d outside [8, 1048576]", c.Window)
	case c.Bins < 2 || c.Bins > 1024:
		return fmt.Errorf("lifecycle: bins %d outside [2, 1024]", c.Bins)
	case c.MinRows < c.Bins || c.MinRows > c.Window:
		return fmt.Errorf("lifecycle: min %d outside [bins=%d, window=%d]", c.MinRows, c.Bins, c.Window)
	case c.Every < 1 || c.Every > c.Window:
		return fmt.Errorf("lifecycle: every %d outside [1, window=%d]", c.Every, c.Window)
	case math.IsNaN(c.DriftThreshold) || c.DriftThreshold <= 0 || c.DriftThreshold > 100:
		return fmt.Errorf("lifecycle: drift %v outside (0, 100]", c.DriftThreshold)
	case math.IsNaN(c.PosteriorThreshold) || c.PosteriorThreshold <= 0 || c.PosteriorThreshold > 100:
		return fmt.Errorf("lifecycle: pdrift %v outside (0, 100]", c.PosteriorThreshold)
	case c.ShadowMin < 1 || c.ShadowMin > 1<<20:
		return fmt.Errorf("lifecycle: shadowmin %d outside [1, 1048576]", c.ShadowMin)
	case math.IsNaN(c.Alpha) || c.Alpha <= 0 || c.Alpha >= 1:
		return fmt.Errorf("lifecycle: alpha %v outside (0, 1)", c.Alpha)
	case math.IsNaN(c.Margin) || c.Margin < 0 || c.Margin > 1:
		return fmt.Errorf("lifecycle: margin %v outside [0, 1]", c.Margin)
	case c.Cooldown < 0 || c.Cooldown > 1<<20:
		return fmt.Errorf("lifecycle: cooldown %d outside [0, 1048576]", c.Cooldown)
	case c.TrainWindow < 8 || c.TrainWindow > 1<<24:
		return fmt.Errorf("lifecycle: train %d outside [8, 16777216]", c.TrainWindow)
	case !validAlgo(c.Algo):
		return fmt.Errorf("lifecycle: algo %q not one of nb, rf, svm, stack", c.Algo)
	}
	return nil
}

// table is the config's spec grammar; ParseSpec and Spec both derive
// from it.
func (c *Config) table() kvspec.Table {
	return kvspec.Table{Prefix: "lifecycle", Noun: "spec", Fields: []kvspec.Field{
		{Key: "window", Ptr: &c.Window},
		{Key: "bins", Ptr: &c.Bins},
		{Key: "min", Ptr: &c.MinRows},
		{Key: "every", Ptr: &c.Every},
		{Key: "drift", Ptr: &c.DriftThreshold},
		{Key: "pdrift", Ptr: &c.PosteriorThreshold},
		{Key: "shadowmin", Ptr: &c.ShadowMin},
		{Key: "alpha", Ptr: &c.Alpha},
		{Key: "margin", Ptr: &c.Margin},
		{Key: "cooldown", Ptr: &c.Cooldown},
		{Key: "train", Ptr: &c.TrainWindow},
		{Key: "algo", Ptr: &c.Algo},
		{Key: "seed", Ptr: &c.Seed},
		{Key: "auto", Ptr: &c.Auto},
	}}
}

// ParseSpec parses a lifecycle spec: comma- or whitespace-separated k=v
// pairs, e.g.
//
//	window=256,bins=10,drift=0.2,shadowmin=200,alpha=0.05,algo=stack,auto=true
//
// Keys: window, bins, min, every, drift, pdrift, shadowmin, alpha,
// margin, cooldown, train, algo, seed, auto. Every key defaults sanely;
// an empty spec is the default config. The returned config always
// passes Validate.
func ParseSpec(s string) (Config, error) {
	cfg := DefaultConfig()
	seen, err := cfg.table().Parse(s)
	if err != nil {
		return Config{}, err
	}
	if !seen["min"] {
		// The min default tracks the configured window, not the default
		// window: "evaluate once the window is full" unless overridden.
		cfg.MinRows = cfg.Window
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Spec renders the config canonically; ParseSpec(c.Spec()) returns an
// identical config (keys sorted, floats in shortest form).
func (c Config) Spec() string { return c.table().Render() }
