package lifecycle

import (
	"os"
	"testing"

	"repro/internal/testkit"
)

// The deterministic lifecycle simulation harness: seeded traffic with a
// known injected shift, replayed through a real champion + loop. These
// tests are the ISSUE's proof obligations — drift fires within a
// bounded window of the shift, shadow scoring never perturbs served
// answers, promotion happens iff the significance gate passes, the
// ledgers reconcile exactly, and the whole arc is bit-identical at any
// worker count.

func runSim(t *testing.T, cfg SimConfig) *SimResult {
	t.Helper()
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLifecycleSimArc(t *testing.T) {
	res := runSim(t, SimConfig{Seed: 42})

	// Drift must alarm within a bounded window of the injected shift:
	// the shift lands at tick 8, the drift window is two ticks deep.
	const shiftTick = 8
	if res.DriftTick < shiftTick || res.DriftTick > shiftTick+2 {
		t.Fatalf("drift fired at tick %d, want within [%d, %d]", res.DriftTick, shiftTick, shiftTick+2)
	}
	if res.PromoteTick < res.DriftTick || res.PromoteTick > res.DriftTick+4 {
		t.Fatalf("promotion at tick %d after drift at %d, want within 4 ticks", res.PromoteTick, res.DriftTick)
	}
	if res.FinalGeneration < 2 {
		t.Fatalf("final generation %d: the challenger never promoted", res.FinalGeneration)
	}
	if res.Status.Promotions < 1 || res.Status.Retrains < 1 {
		t.Fatalf("arc incomplete: %+v", res.Status)
	}

	// The gate is honest: every promotion recorded a decision that
	// passes it, and the last decision is internally consistent.
	d := res.Decision
	if d == nil {
		t.Fatal("no decision recorded")
	}
	if d.Promoted && (d.C <= d.B || d.P > SimLifecycleConfig().Alpha) {
		t.Fatalf("promoted decision violates the gate: %+v", d)
	}
	if !d.Promoted && d.C > d.B && d.P <= SimLifecycleConfig().Alpha &&
		d.ChallAcc-d.ChampAcc >= SimLifecycleConfig().Margin {
		t.Fatalf("gate-passing decision was not promoted: %+v", d)
	}
	if len(d.Sweep) == 0 {
		t.Fatal("decision is missing the paper's threshold sweep")
	}

	// Conservation: the shadow ledger balances, and the flight
	// recorder's shadow tallies reconcile against it exactly.
	lg := res.Ledger
	if err := lg.Check(); err != nil {
		t.Fatal(err)
	}
	if lg.Scored == 0 {
		t.Fatal("no rows were shadow-scored")
	}
	if res.FlightStats.ShadowRows != lg.Scored || res.FlightStats.ShadowAgree != lg.Agree {
		t.Fatalf("flight recorder (rows=%d agree=%d) does not reconcile with ledger %+v",
			res.FlightStats.ShadowRows, res.FlightStats.ShadowAgree, lg)
	}

	// The loop's spec renders canonically (the /api/lifecycle contract).
	if _, err := ParseSpec(res.Status.Spec); err != nil {
		t.Fatalf("status spec %q does not re-parse: %v", res.Status.Spec, err)
	}

	// CI uploads the trace as a build artifact when asked.
	if out := os.Getenv("LIFECYCLE_SIM_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(res.Trace), 0o644); err != nil {
			t.Fatalf("write sim trace artifact: %v", err)
		}
		t.Logf("wrote lifecycle sim trace to %s (%d bytes)", out, len(res.Trace))
	}
}

// The golden trace pins the entire arc — tick states, PSI values,
// transitions, the promotion decision, and both ledgers — byte for
// byte. Regenerate with `make testkit-update` (see EXPERIMENTS.md).
func TestLifecycleSimGolden(t *testing.T) {
	res := runSim(t, SimConfig{Seed: 42})
	testkit.GoldenString(t, "lifecycle.golden", res.Trace)
}

// Bit-parity at any fan-out width: the trace, the served digest, and
// every per-tick prefix digest are identical at workers 1 vs N.
func TestLifecycleSimWorkerParity(t *testing.T) {
	one := runSim(t, SimConfig{Seed: 42, Workers: 1})
	for _, workers := range []int{2, 8} {
		n := runSim(t, SimConfig{Seed: 42, Workers: workers})
		if n.Trace != one.Trace {
			t.Fatalf("trace diverged at %d workers", workers)
		}
		if n.ServedDigest != one.ServedDigest {
			t.Fatalf("served digest diverged at %d workers: %s vs %s", workers, n.ServedDigest, one.ServedDigest)
		}
		for i := range one.TickDigests {
			if n.TickDigests[i] != one.TickDigests[i] {
				t.Fatalf("tick %d digest diverged at %d workers", i, workers)
			}
		}
	}
}

// Shadow scoring must be invisible to clients: a run with the loop
// monitoring and shadow-scoring (but never promoting) serves exactly
// the same bytes as a run with no loop at all.
func TestLifecycleSimShadowNeverPerturbsServing(t *testing.T) {
	shadow := runSim(t, SimConfig{Seed: 42, Mode: ModeShadow})
	off := runSim(t, SimConfig{Seed: 42, Mode: ModeOff})
	if shadow.ServedDigest != off.ServedDigest {
		t.Fatalf("shadow scoring perturbed served answers: %s vs %s", shadow.ServedDigest, off.ServedDigest)
	}
	if shadow.Ledger.Scored == 0 {
		t.Fatal("shadow mode scored nothing — the parity check proved nothing")
	}
	if shadow.FinalGeneration != 1 || off.FinalGeneration != 1 {
		t.Fatalf("non-promoting modes advanced the generation: shadow=%d off=%d",
			shadow.FinalGeneration, off.FinalGeneration)
	}
}

// Promotion — and only promotion — may change served answers: the full
// loop matches the loop-disabled reference byte-for-byte on every tick
// before the promotion lands, and diverges after.
func TestLifecycleSimPromotionIsTheOnlyDivergence(t *testing.T) {
	full := runSim(t, SimConfig{Seed: 42, Mode: ModeFull})
	off := runSim(t, SimConfig{Seed: 42, Mode: ModeOff})
	if full.PromoteTick < 0 {
		t.Fatal("full mode never promoted")
	}
	for i := 0; i < full.PromoteTick; i++ {
		if full.TickDigests[i] != off.TickDigests[i] {
			t.Fatalf("served bytes diverged at tick %d, before the promotion at tick %d", i, full.PromoteTick)
		}
	}
	last := len(full.TickDigests) - 1
	if full.TickDigests[last] == off.TickDigests[last] {
		t.Fatal("promotion never changed served answers — the divergence check proved nothing")
	}
}

// The same arc with the stacked-ensemble challenger (NB+RF+SVM under a
// softmax meta-learner): shorter, because the stack retrains three base
// families per drift event, but the same conservation and parity
// obligations hold.
func TestLifecycleSimStackChallenger(t *testing.T) {
	lc := SimLifecycleConfig()
	lc.Algo = "stack"
	lc.TrainWindow = 480
	cfg := SimConfig{Seed: 42, Ticks: 14, Lifecycle: lc}
	res := runSim(t, cfg)
	if res.DriftTick < 4 {
		t.Fatalf("drift fired at tick %d, before the shift at tick 4", res.DriftTick)
	}
	if res.Status.Retrains < 1 {
		t.Fatal("the stack challenger never retrained")
	}
	lg := res.Ledger
	if err := lg.Check(); err != nil || lg.Scored == 0 {
		t.Fatalf("stack ledger does not balance (%v): %+v", err, lg)
	}
	// Determinism with the heavier challenger, tick digests included.
	again := runSim(t, cfg)
	if again.Trace != res.Trace || again.ServedDigest != res.ServedDigest {
		t.Fatal("stack simulation is not deterministic across runs")
	}
}
