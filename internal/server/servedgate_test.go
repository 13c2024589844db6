package server

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/warehouse"
)

// servedGateConfig is the loop config of the served gate tests: the
// defaults (TrainWindow 4 096 covers every labelled boot row), a forest
// challenger, manual mode.
func servedGateConfig() lifecycle.Config {
	cfg := lifecycle.DefaultConfig()
	cfg.Algo, cfg.Seed, cfg.Auto = "rf", 3, false
	return cfg
}

// kept is the complement of core.HeldOut: the jobs a served model may
// train on.
func kept(r *warehouse.Record) bool { return !core.HeldOut(r.JobID) }

// bootChampion is core.PaperForest(3) trained the way supremm-serve
// trains its boot model: on the labelled 91/200 jobs core.HeldOut keeps.
func bootChampion(t testing.TB) *core.JobClassifier {
	return shared(t, "boot champion 91/200", func() (*core.JobClassifier, error) {
		train := warehouse.Records(pipeline(t, 91, 200).Records).Filter(kept)
		ds, err := core.BuildDataset(train, core.LabelByCategory, core.DefaultFeatures())
		if err != nil {
			return nil, err
		}
		return core.TrainJobClassifier(ds, core.PaperForest(3))
	})
}

// servedGateServer boots a server the way supremm-serve does: a Sharded
// warehouse seeded with the 91/200 pipeline run, the boot champion, and
// the lifecycle loop armed with no Trainer and no Baseline, so the
// server builds both from its warehouse.
func servedGateServer(t *testing.T, cfg lifecycle.Config) (*Server, *warehouse.Sharded) {
	t.Helper()
	sink := warehouse.NewSharded(warehouse.ShardedConfig{})
	for _, r := range pipeline(t, 91, 200).Records {
		if err := sink.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	models := core.NewModelManager(nil)
	if _, err := models.Swap(bootChampion(t)); err != nil {
		t.Fatal(err)
	}
	s := New(sink, nil, 6400, WithModelManager(models), WithLifecycle(cfg, lifecycle.Options{}))
	if s.Lifecycle() == nil {
		t.Fatal("lifecycle loop rejected")
	}
	return s, sink
}

// retrainAndDecide forces a retrain and runs the gate on it.
func retrainAndDecide(t *testing.T, l *lifecycle.Loop) lifecycle.Decision {
	t.Helper()
	if err := l.Retrain(); err != nil {
		t.Fatal(err)
	}
	if err := l.Decide(); err != nil {
		t.Fatal(err)
	}
	dec := l.Status().LastDecision
	if dec == nil {
		t.Fatal("the gate recorded no decision")
	}
	return *dec
}

// jobIDs is the set of job ids of win's rows at idx.
func jobIDs(win warehouse.Records, idx []int) map[string]bool {
	ids := make(map[string]bool, len(idx))
	for _, i := range idx {
		ids[win[i].JobID] = true
	}
	return ids
}

// TestServedBootGateScoresHeldOutJobs: booted the way supremm-serve
// boots, the first retrain's gate scores every held-out labelled boot
// job (22 of the 91/200 run), and none of them trained the champion or
// the challenger. The verdict either keeps the champion (stable, no
// challenger) or promotes (a new generation).
func TestServedBootGateScoresHeldOutJobs(t *testing.T) {
	cfg := servedGateConfig()
	s, sink := servedGateServer(t, cfg)
	labelledBoot := sink.Records().Filter(labelled)
	heldOut := map[string]bool{}
	for _, r := range labelledBoot {
		if core.HeldOut(r.JobID) {
			heldOut[r.JobID] = true
		}
	}
	if len(heldOut) != 22 {
		t.Fatalf("%d held-out labelled boot jobs, want 22", len(heldOut))
	}
	for _, r := range warehouse.Records(pipeline(t, 91, 200).Records).Filter(kept) {
		if heldOut[r.JobID] {
			t.Fatalf("held-out job %s trained the boot champion", r.JobID)
		}
	}

	win, train, eval := s.trainWindow(cfg.TrainWindow)
	if len(win) != len(labelledBoot) {
		t.Fatalf("window of %d jobs, want all %d labelled boot jobs", len(win), len(labelledBoot))
	}
	evalIDs := jobIDs(win, eval)
	if len(evalIDs) != len(heldOut) {
		t.Fatalf("%d evaluation jobs, want the %d held-out ones", len(evalIDs), len(heldOut))
	}
	for id := range evalIDs {
		if !heldOut[id] {
			t.Fatalf("evaluation job %s is not held out", id)
		}
	}
	for id := range jobIDs(win, train) {
		if heldOut[id] {
			t.Fatalf("held-out job %s trains the challenger", id)
		}
	}

	l := s.Lifecycle()
	gen0 := l.Status().Generation
	dec := retrainAndDecide(t, l)
	st := l.Status()
	if dec.EvalRows != len(heldOut) || dec.B+dec.C > dec.EvalRows {
		t.Fatalf("boot gate: %+v; want %d rows with b+c within them", dec, len(heldOut))
	}
	if st.State != lifecycle.StateStable || st.ChallengerReady ||
		(dec.Promoted && st.Generation != gen0+1) || (!dec.Promoted && st.Generation != gen0) {
		t.Fatalf("after the boot gate: state %q, ready %v, generation %d (was %d), promoted %v",
			st.State, st.ChallengerReady, st.Generation, gen0, dec.Promoted)
	}
	t.Logf("boot gate over %d held-out jobs: champion %.3f, challenger %.3f (b=%d, c=%d)",
		dec.EvalRows, dec.ChampAcc, dec.ChallAcc, dec.B, dec.C)
}

// TestServedGateEvalRows: the served gate never scores a model on rows
// it trained on. Once labelled jobs newer than boot are ingested, a
// retrain's window holds boot and ingested jobs alike; core.HeldOut
// splits it, and the gate scores every held-out job in it.
func TestServedGateEvalRows(t *testing.T) {
	cfg := servedGateConfig()
	s, sink := servedGateServer(t, cfg)
	ingestNewer(t, sink, pipeline(t, 92, 200).Records)
	win, train, eval := s.trainWindow(cfg.TrainWindow)
	if len(eval) == 0 || len(train)+len(eval) != len(win) {
		t.Fatalf("%d training and %d evaluation rows of a %d-job window", len(train), len(eval), len(win))
	}
	for _, i := range eval {
		if !core.HeldOut(win[i].JobID) {
			t.Fatalf("evaluation job %s is not held out", win[i].JobID)
		}
	}
	for _, i := range train {
		if core.HeldOut(win[i].JobID) {
			t.Fatalf("held-out job %s is a training row", win[i].JobID)
		}
	}
	dec := retrainAndDecide(t, s.Lifecycle())
	if dec.EvalRows != len(eval) {
		t.Fatalf("the gate scored %d rows, want the window's %d held-out jobs", dec.EvalRows, len(eval))
	}
	t.Logf("gate over %d held-out jobs: champion %.3f, challenger %.3f (b=%d, c=%d)",
		dec.EvalRows, dec.ChampAcc, dec.ChallAcc, dec.B, dec.C)
}

// ingestNewer copies recs under fresh ids above every boot id
// (2000000 + i) and ingests them: jobs that ran since boot.
func ingestNewer(t *testing.T, sink *warehouse.Sharded, recs warehouse.Records) {
	t.Helper()
	for i, r := range recs {
		c := *r
		c.JobID = fmt.Sprintf("%07d", 2000000+i)
		if err := sink.Ingest(&c); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDefaultTrainerReadsCurrentCut: with no Trainer supplied, a retrain
// trains on the last TrainWindow labelled jobs of the warehouse's cut at
// retrain time. After ingest those are the newest ingested jobs, and the
// challenger is the one TrainChallenger builds from them.
func TestDefaultTrainerReadsCurrentCut(t *testing.T) {
	cfg := servedGateConfig()
	cfg.TrainWindow = 64
	s, sink := servedGateServer(t, cfg)
	fresh := sink.Records().Filter(labelled)[:80]
	ingestNewer(t, sink, fresh)

	win, train, eval := s.trainWindow(cfg.TrainWindow)
	if len(win) != 64 || win[0].JobID != "2000016" || win[63].JobID != "2000079" {
		t.Fatalf("window: %d jobs, %s to %s; want the last 64 ingested", len(win), win[0].JobID, win[len(win)-1].JobID)
	}
	ds, err := core.BuildDataset(win, core.LabelByCategory, core.DefaultFeatures())
	if err != nil {
		t.Fatal(err)
	}
	want, err := lifecycle.TrainChallenger(ds, train, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.trainChallenger(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := got.Model.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.Model.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) || got.Eval.Len() != len(eval) {
		t.Fatal("the default trainer's challenger is not the one trained on the current cut's last 64 labelled jobs")
	}

	// The loop's retrain reads the same window: the gate scores its
	// held-out jobs.
	dec := retrainAndDecide(t, s.Lifecycle())
	if st := s.Lifecycle().Status(); st.Retrains != 1 || len(eval) == 0 || dec.EvalRows != len(eval) {
		t.Fatalf("retrain through the loop: %d retrains, the gate scored %d rows, want %d", st.Retrains, dec.EvalRows, len(eval))
	}
}
