package lifecycle

// The deterministic simulation harness behind sim_test.go and
// `make lifecycle-sim`: test-only, so it links testkit and the synthetic
// traffic generator into no production binary.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/testkit"
)

// Simulation modes: how much of the loop is armed. The parity contract
// is ModeShadow == ModeOff on every served byte — monitoring and
// shadow scoring must be invisible to clients; only ModeFull (which
// can promote) may change served answers, and only after promotion.
const (
	// ModeFull arms the whole loop: drift -> retrain -> shadow ->
	// promotion decision.
	ModeFull = "full"
	// ModeShadow retrains and shadow-scores on drift but never runs
	// the promotion decision: the serving champion is immutable.
	ModeShadow = "shadow"
	// ModeOff runs no loop at all: the byte-parity reference.
	ModeOff = "off"
)

// SimConfig drives one deterministic lifecycle simulation: a seeded
// traffic schedule over synthetic Gaussian-blob classes with a
// distribution shift injected at a known tick. The shift is built to
// exercise both halves of the loop: every feature gains a uniform
// offset (so the frozen-bin PSI monitors see the marginals move), and
// each class's rows relocate to its neighbor's old region (so the
// frozen champion's answers become genuinely wrong and a retrained
// challenger can win the promotion gate rather than merely tie it).
type SimConfig struct {
	Seed        uint64
	Ticks       int     // total ticks (default 24)
	RowsPerTick int     // classify rows per tick (default 120)
	ShiftTick   int     // first tick serving shifted traffic (default Ticks/3)
	Shift       float64 // uniform offset added to every feature after the shift (default 1.5)
	Workers     int     // inference fan-out width (default 1)
	Threshold   float64 // classify threshold (default 0.5)
	Mode        string  // ModeFull | ModeShadow | ModeOff (default ModeFull)
	Lifecycle   Config  // loop config (zero value = SimLifecycleConfig)
}

// SimLifecycleConfig is the loop config the simulation defaults to:
// small windows so the whole arc fits in a few thousand rows, a drift
// threshold comfortably above small-window sampling noise (the
// injected shift lands around PSI 3), and a random-forest challenger
// (fast to retrain; TestLifecycleSimStack covers the stacked
// ensemble).
func SimLifecycleConfig() Config {
	cfg := DefaultConfig()
	cfg.Window = 240
	cfg.MinRows = 240
	cfg.Every = 40
	cfg.DriftThreshold = 0.5
	cfg.PosteriorThreshold = 0.5
	cfg.ShadowMin = 240
	cfg.Cooldown = 240
	cfg.TrainWindow = 960
	cfg.Algo = "rf"
	return cfg
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Ticks <= 0 {
		c.Ticks = 24
	}
	if c.RowsPerTick <= 0 {
		c.RowsPerTick = 120
	}
	if c.ShiftTick <= 0 {
		c.ShiftTick = c.Ticks / 3
	}
	if c.Shift == 0 {
		c.Shift = 1.5
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.Mode == "" {
		c.Mode = ModeFull
	}
	if c.Lifecycle == (Config{}) {
		c.Lifecycle = SimLifecycleConfig()
	}
	return c
}

// SimResult is everything a simulation proves, pinned by the golden
// corpus and the parity tests.
type SimResult struct {
	// Trace is the deterministic human-readable arc (the golden
	// artifact): per-tick state lines, transitions, the promotion
	// decision, and the ledgers.
	Trace string
	// ServedDigest hashes every served (label, probability) pair in
	// arrival order — the byte-parity handle.
	ServedDigest string
	// TickDigests is the per-tick prefix of ServedDigest, for
	// prefix-parity against a promoting run.
	TickDigests []string
	// DriftTick is the first tick whose end saw a non-stable state
	// (-1: drift never fired). PromoteTick is the tick whose end
	// performed a promotion (-1: none).
	DriftTick   int
	PromoteTick int
	// FinalGeneration is the champion generation after the last tick
	// (1 = the boot model, untouched).
	FinalGeneration uint64
	Ledger          Ledger
	FlightStats     flight.Stats
	Status          Status
	Decision        *Decision
}

// simClasses / simFeatures shape the synthetic traffic.
const (
	simClasses  = 4
	simFeatures = 6
	simSpread   = 0.35
)

// simCenter lays out the class centers the boot training set and the
// live traffic both draw from. The modulus layout keeps every pair of
// classes apart on most features by at least a unit (vs spread 0.35),
// so the world is genuinely learnable and accuracy swings in the arc
// are attributable to the injected shift, not to class collisions.
func simCenter(k, f int) float64 {
	return float64((5*k+3*f)%11) + 0.5*float64(k)
}

// simRow draws one traffic row for class k from stream r, shifted by
// shift on every feature.
func simRow(r *rng.Rand, k int, shift float64) []float64 {
	row := make([]float64, simFeatures)
	for f := range row {
		row[f] = simCenter(k, f) + simSpread*r.Normal() + shift
	}
	return row
}

// trainEveryFifth is the simulation's split of a labeled window: every
// fifth row is held out as the gate's evaluation rows, and the challenger
// trains on the rest.
func trainEveryFifth(names []string, rows [][]float64, labels []string, cfg Config) (TrainResult, error) {
	d, err := dataset.New(names, rows, labels)
	if err != nil {
		return TrainResult{}, fmt.Errorf("lifecycle: challenger window: %w", err)
	}
	var train, eval []int
	for i := range rows {
		if i%5 == 4 {
			eval = append(eval, i)
		} else {
			train = append(train, i)
		}
	}
	return TrainChallenger(d, train, eval, cfg)
}

// simBootSet generates the champion's (unshifted) training set from
// the same world as the live traffic: rowsPerClass rows per class,
// one split stream per class.
func simBootSet(seed uint64, rowsPerClass int) (*dataset.Dataset, error) {
	root := rng.New(seed + 0xb007)
	var rows [][]float64
	var labels []string
	for k := 0; k < simClasses; k++ {
		r := root.Split(uint64(k))
		for i := 0; i < rowsPerClass; i++ {
			rows = append(rows, simRow(r, k, 0))
			labels = append(labels, fmt.Sprintf("class%02d", k))
		}
	}
	names := make([]string, simFeatures)
	for f := range names {
		names[f] = fmt.Sprintf("feat%02d", f)
	}
	return dataset.New(names, rows, labels)
}

// RunSim replays the seeded traffic schedule through a fresh champion
// + loop and returns the full deterministic record. Per-tick inference
// fans out over cfg.Workers with ordered results, then the loop
// observes rows serially in arrival order — so every artifact is
// bit-identical at any worker count.
func RunSim(cfg SimConfig) (*SimResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Lifecycle.Validate(); err != nil {
		return nil, err
	}

	// Boot world: train the champion on unshifted data, freeze the
	// drift baseline from its own training-set predictions.
	train, err := simBootSet(cfg.Seed, 60)
	if err != nil {
		return nil, fmt.Errorf("lifecycle sim: boot set: %w", err)
	}
	champion, err := core.TrainJobClassifier(train, challengerConfig("rf", cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("lifecycle sim: champion: %w", err)
	}
	reg := obs.NewRegistry()
	mgr := core.NewModelManager(reg)
	if _, err := mgr.Swap(champion); err != nil {
		return nil, fmt.Errorf("lifecycle sim: boot swap: %w", err)
	}
	base, err := BaselineFor(train, champion, cfg.Lifecycle.Bins)
	if err != nil {
		return nil, err
	}

	// The labeled history the trainer's sliding window draws from.
	var histRows [][]float64
	var histLabels []string
	lcCfg := cfg.Lifecycle
	lcCfg.Seed = cfg.Seed
	trainer := func() (TrainResult, error) {
		n := len(histRows)
		w := lcCfg.TrainWindow
		if w > n {
			w = n
		}
		return trainEveryFifth(train.FeatureNames, histRows[n-w:], histLabels[n-w:], lcCfg)
	}

	var loop *Loop
	if cfg.Mode != ModeOff {
		loop, err = New(lcCfg, Options{
			Manager:  mgr,
			Trainer:  trainer,
			Baseline: base,
			Registry: reg,
		})
		if err != nil {
			return nil, err
		}
	}

	rec := flight.NewRecorder(flight.Config{Capacity: 64})
	root := rng.New(cfg.Seed + 0x5eed)
	res := &SimResult{DriftTick: -1, PromoteTick: -1}
	var trace, served strings.Builder
	testkit.Section(&trace, "lifecycle simulation")
	// Workers deliberately do not appear in the trace: the record must
	// be byte-identical at any fan-out width.
	fmt.Fprintf(&trace, "mode=%s ticks=%d rows/tick=%d shift@%d=%s\n",
		cfg.Mode, cfg.Ticks, cfg.RowsPerTick, cfg.ShiftTick, testkit.Float(cfg.Shift))
	fmt.Fprintf(&trace, "spec=%s\n", lcCfg.Spec())
	testkit.Section(&trace, "ticks")

	type answer struct {
		label string
		prob  float64
	}
	for t := 0; t < cfg.Ticks; t++ {
		// Generate the tick's rows deterministically: class round-robin,
		// one split RNG stream per row, mean shift after ShiftTick.
		tickStream := root.Split(uint64(t))
		rows := make([][]float64, cfg.RowsPerTick)
		labels := make([]string, cfg.RowsPerTick)
		shifted := t >= cfg.ShiftTick
		for i := range rows {
			k := (t*cfg.RowsPerTick + i) % simClasses
			ck, shift := k, 0.0
			if shifted {
				// The shifted world: class k's rows now live at class
				// k+1's old center plus a uniform offset. The offset
				// moves the marginals (PSI fires); the rotation makes
				// the frozen champion answer the old tenant's label.
				ck, shift = (k+1)%simClasses, cfg.Shift
			}
			rows[i] = simRow(tickStream.Split(uint64(i)), ck, shift)
			labels[i] = fmt.Sprintf("class%02d", k)
		}

		// Serve the tick: parallel inference with ordered results (the
		// batch endpoint's shape), one view for the whole tick (swaps
		// only land at tick boundaries).
		view := mgr.View()
		fa := flight.NewActive(fmt.Sprintf("tick-%03d", t), "POST", "/sim/classify", time.Now())
		ctx := flight.With(context.Background(), fa)
		answers, err := parallel.Map(cfg.Workers, len(rows), func(i int) (answer, error) {
			label, prob, _ := view.Model.Classify(rows[i], cfg.Threshold)
			return answer{label, prob}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("lifecycle sim: tick %d: %w", t, err)
		}
		// Observe serially in arrival order: window contents and shadow
		// tallies are order-defined, never scheduling-defined.
		for i, a := range answers {
			loop.Observe(ctx, rows[i], a.label)
			fmt.Fprintf(&served, "%s:%s\n", a.label, testkit.Float(a.prob))
		}
		fa.Finalize(200, time.Millisecond)
		rec.Record(fa)
		histRows = append(histRows, rows...)
		histLabels = append(histLabels, labels...)

		// Tick boundary: the loop acts (mode-dependent).
		if loop != nil {
			switch cfg.Mode {
			case ModeFull:
				loop.Step()
			case ModeShadow:
				if loop.Status().State == StateDrifting {
					_ = loop.Retrain()
				}
			}
		}

		st := loop.Status()
		if cfg.Mode == ModeOff {
			st = Status{State: StateStable, Generation: mgr.Generation()}
		}
		if res.DriftTick < 0 && (st.State != StateStable || st.DriftEvents > 0) {
			res.DriftTick = t
		}
		if res.PromoteTick < 0 && st.Promotions > 0 {
			res.PromoteTick = t
		}
		res.TickDigests = append(res.TickDigests, testkit.HashBytes([]byte(served.String())))
		fmt.Fprintf(&trace, "tick %03d state=%-9s gen=%d drift_events=%d maxPSI=%s postPSI=%s scored=%d agree=%d\n",
			t, st.State, st.Generation, st.DriftEvents,
			testkit.Float(st.MaxFeaturePSI), testkit.Float(st.PosteriorPSI),
			st.Ledger.Scored, st.Ledger.Agree)
	}

	res.Status = loop.Status()
	if cfg.Mode == ModeOff {
		res.Status = Status{State: StateStable, Generation: mgr.Generation()}
	}
	res.Decision = res.Status.LastDecision
	res.Ledger = res.Status.Ledger
	res.FinalGeneration = mgr.Generation()
	res.FlightStats = rec.Stats()
	res.ServedDigest = testkit.HashBytes([]byte(served.String()))

	testkit.Section(&trace, "transitions")
	for _, tr := range res.Status.Transitions {
		fmt.Fprintf(&trace, "row %05d %s -> %s (%s)\n", tr.Row, tr.From, tr.To, tr.Reason)
	}
	if d := res.Decision; d != nil {
		testkit.Section(&trace, "decision")
		fmt.Fprintf(&trace, "evalRows=%d champAcc=%s challAcc=%s b=%d c=%d chiSq=%s p=%s promoted=%v\n",
			d.EvalRows, testkit.Float(d.ChampAcc), testkit.Float(d.ChallAcc),
			d.B, d.C, testkit.Float(d.ChiSq), testkit.Float(d.P), d.Promoted)
		fmt.Fprintf(&trace, "reason=%s\n", d.Reason)
		for _, p := range d.Sweep {
			if p.Threshold == 0.5 || p.Threshold == 0.9 {
				fmt.Fprintf(&trace, "sweep t=%s classified=%s correct=%s\n",
					testkit.Float(p.Threshold), testkit.Float(p.Classified), testkit.Float(p.CorrectlyClassified))
			}
		}
	}
	testkit.Section(&trace, "ledger")
	fmt.Fprintf(&trace, "eligible=%d scored=%d errors=%d agree=%d disagree=%d\n",
		res.Ledger.Eligible, res.Ledger.Scored, res.Ledger.Errors, res.Ledger.Agree, res.Ledger.Disagree)
	fmt.Fprintf(&trace, "flight shadowRows=%d shadowAgree=%d\n",
		res.FlightStats.ShadowRows, res.FlightStats.ShadowAgree)
	testkit.Section(&trace, "result")
	fmt.Fprintf(&trace, "driftTick=%d promoteTick=%d finalGen=%d servedDigest=%s\n",
		res.DriftTick, res.PromoteTick, res.FinalGeneration, res.ServedDigest)
	res.Trace = trace.String()
	return res, nil
}
