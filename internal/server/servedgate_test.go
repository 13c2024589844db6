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

// servedGateServer boots a server over a Sharded warehouse seeded with
// the 91/200 pipeline run, its champion trained on every labelled boot
// job, and arms the lifecycle loop the way supremm-serve does: no
// Trainer and no Baseline, so the server builds both from its warehouse.
func servedGateServer(t *testing.T, cfg lifecycle.Config) (*Server, *warehouse.Sharded) {
	t.Helper()
	sink := warehouse.NewSharded(warehouse.ShardedConfig{})
	for _, r := range pipeline(t, 91, 200).Records {
		if err := sink.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	models := core.NewModelManager(nil)
	if _, err := models.Swap(paperForest(t, 91, 200)); err != nil {
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

// TestServedGateEvalRows: the served gate never scores a model on rows
// it trained on. At boot every labelled job trained the champion, so a
// retrain has no evaluation row and the gate abstains: the challenger
// keeps shadowing and nothing is demoted. Once labelled jobs newer than
// the boot cut are ingested, the gate scores only held-out jobs among
// them, and no challenger trains on a held-out job.
func TestServedGateEvalRows(t *testing.T) {
	cfg := servedGateConfig()
	s, sink := servedGateServer(t, cfg)
	l := s.Lifecycle()
	dec := retrainAndDecide(t, l)
	st := l.Status()
	if dec.EvalRows != 0 || dec.Promoted || st.State != lifecycle.StateShadowing || !st.ChallengerReady ||
		st.Demotions != 0 || st.CooldownLeft != cfg.Cooldown {
		t.Fatalf("boot gate: decision %+v, state %q, ready %v, %d demotions, cooldown %d; want an abstention",
			dec, st.State, st.ChallengerReady, st.Demotions, st.CooldownLeft)
	}

	boot := lastJobID(sink.Records())
	ingestNewer(t, sink, pipeline(t, 92, 200).Records)
	win, train, eval := s.trainWindow(cfg.TrainWindow, boot)
	if len(eval) == 0 {
		t.Fatal("no evaluation row among the ingested jobs")
	}
	for _, i := range eval {
		if r := win[i]; r.JobID <= boot || !heldOut(r.JobID) {
			t.Fatalf("evaluation job %s: newer than boot %v, held out %v", r.JobID, r.JobID > boot, heldOut(r.JobID))
		}
	}
	for _, i := range train {
		if heldOut(win[i].JobID) {
			t.Fatalf("held-out job %s is a training row", win[i].JobID)
		}
	}
	if dec = retrainAndDecide(t, l); dec.EvalRows != len(eval) {
		t.Fatalf("the gate scored %d rows, want the %d held-out jobs newer than boot", dec.EvalRows, len(eval))
	}
	t.Logf("gate over %d held-out jobs newer than boot: champion %.3f, challenger %.3f (b=%d, c=%d)",
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
// retrain time. After ingest those are jobs newer than the boot cut, and
// the challenger is the one TrainChallenger builds from them.
func TestDefaultTrainerReadsCurrentCut(t *testing.T) {
	cfg := servedGateConfig()
	cfg.TrainWindow = 64
	s, sink := servedGateServer(t, cfg)
	boot := lastJobID(sink.Records())
	fresh := sink.Records().Filter(labelled)[:80]
	ingestNewer(t, sink, fresh)

	win, train, eval := s.trainWindow(cfg.TrainWindow, boot)
	if len(win) != 64 || win[0].JobID != "2000016" || win[63].JobID != "2000079" {
		t.Fatalf("window: %d jobs, %s to %s; want the last 64 ingested", len(win), win[0].JobID, win[len(win)-1].JobID)
	}
	if len(train)+len(eval) != len(win) {
		t.Fatalf("%d training and %d evaluation rows of %d: every window job is newer than boot", len(train), len(eval), len(win))
	}
	ds, err := core.BuildDataset(win, core.LabelByCategory, core.DefaultFeatures())
	if err != nil {
		t.Fatal(err)
	}
	want, err := lifecycle.TrainChallenger(ds, train, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.trainChallenger(cfg, boot)
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

	// The loop's first retrain comes after the ingest, yet it still
	// measures "newer" from the boot cut: the gate scores the same
	// held-out jobs.
	dec := retrainAndDecide(t, s.Lifecycle())
	if st := s.Lifecycle().Status(); st.Retrains != 1 || len(eval) == 0 || dec.EvalRows != len(eval) {
		t.Fatalf("retrain through the loop: %d retrains, the gate scored %d rows, want %d", st.Retrains, dec.EvalRows, len(eval))
	}
}
