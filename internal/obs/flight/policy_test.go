package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testkit"
)

// TestDefaultPolicyGolden pins the policy every production recorder runs:
// a fixed event sequence fed into NewRecorder(DefaultConfig()) with a
// bundle directory and a fake clock that steps across all four burn
// windows, over the burn threshold, and past the bundle interval. The
// golden holds the ledger, the SLO view at each step, the exported
// gauges, each kept event's KeepReason and the bundles captured.
func TestDefaultPolicyGolden(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	now := t0
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	at := func(d time.Duration) { mu.Lock(); now = t0.Add(d); mu.Unlock() }

	cfg := DefaultConfig()
	cfg.Clock = clock
	cfg.Bundle.Dir = dir
	rec := NewRecorder(cfg)

	// Burn-triggered captures run off the recording goroutine. Count the
	// triggers and wait for each to settle before the next event, so
	// every capture sees the clock of the event that fired it.
	triggers := uint64(0)
	onBurn := rec.slo.onBurn
	rec.slo.onBurn = func(reason string) { triggers++; onBurn(reason) }
	settle := func() {
		deadline := time.Now().Add(10 * time.Second)
		b := rec.bundler
		for b.captured.Load()+b.failed.Load()+b.rateLimited.Load() != triggers {
			if time.Now().After(deadline) {
				t.Fatalf("%d burn triggers never settled", triggers)
			}
			time.Sleep(time.Millisecond)
		}
	}
	send := func(path string, status int, dur time.Duration, annotate func(*Active)) {
		a := NewActive("id", "POST", path, clock())
		if annotate != nil {
			annotate(a)
		}
		a.Finalize(status, dur)
		rec.Record(a)
		settle()
	}

	var out strings.Builder
	sloAt := func(label string) {
		js, err := json.MarshalIndent(rec.SLOStatus(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		testkit.Section(&out, "slo @ "+label)
		out.Write(js)
		out.WriteByte('\n')
	}

	// Fast mixed traffic at t0: single and batch routes, 400s and 429s
	// that count toward the objectives without spending the availability
	// budget, and ungoverned routes (one a 500) the objectives never see.
	for i := 0; i < 48; i++ {
		path := "/api/classify"
		if i%3 == 0 {
			path = "/api/classify/batch"
		}
		status := 200
		switch {
		case i%12 == 5:
			status = 400
		case i%16 == 7:
			status = 429
		}
		send(path, status, time.Duration((i*37)%97+1)*100*time.Microsecond, nil)
		if i%8 == 0 {
			send("/metrics", 200, time.Millisecond, nil)
			send("/ingest/finalize", 200, 3*time.Millisecond, nil)
		}
		if i == 20 {
			send("/ingest/finalize", 500, time.Millisecond, nil)
		}
	}
	sloAt("+0s")

	// One 500 among 49 burns ~20x: the first capture. A panic and a
	// handler timeout follow inside the bundle interval.
	at(5 * time.Second)
	send("/api/classify", 500, time.Millisecond, nil)
	at(10 * time.Second)
	send("/api/classify", 500, time.Millisecond, func(a *Active) { a.MarkPanic() })
	at(12 * time.Second)
	send("/api/classify/batch", 504, 80*time.Millisecond, func(a *Active) { a.SetTimeoutStage("handler") })
	// Six slow 200s: the fifth takes the latency burn over 10x.
	at(15 * time.Second)
	for i := 0; i < 6; i++ {
		send("/api/classify", 200, time.Duration(600+100*i)*time.Millisecond, nil)
	}
	sloAt("+15s")

	// Past the 1m window: 100 fast 200s fill the latency top-K and reach
	// the 1-in-N sampler. One 500 among 101 burns just under 10x; the
	// second crosses it inside the bundle interval.
	at(90 * time.Second)
	sloAt("+90s")
	for i := 0; i < 100; i++ {
		send("/api/classify", 200, time.Duration((i*53)%89+1)*50*time.Microsecond, nil)
	}
	at(95 * time.Second)
	send("/api/classify", 500, time.Millisecond, nil)
	at(96 * time.Second)
	send("/api/classify", 500, time.Millisecond, nil)
	sloAt("+96s")

	// Past the 5m window and the bundle interval: a 503 among 26 is the
	// second capture; a 500 thirty seconds later is rate-limited again.
	at(6 * time.Minute)
	for i := 0; i < 25; i++ {
		send("/api/classify", 200, 2*time.Millisecond, nil)
	}
	send("/api/classify", 503, time.Millisecond, nil)
	sloAt("+6m")
	at(6*time.Minute + 30*time.Second)
	for i := 0; i < 19; i++ {
		send("/api/classify/batch", 200, 3*time.Millisecond, nil)
	}
	send("/api/classify", 500, time.Millisecond, nil)
	sloAt("+6m30s")

	// Past the 30m and then the 1h window. A lone 500 burns 1000x but
	// the window holds too few requests to trigger a capture.
	at(35 * time.Minute)
	sloAt("+35m")
	at(70 * time.Minute)
	send("/api/classify", 500, time.Millisecond, nil)
	sloAt("+70m")

	stats, err := json.MarshalIndent(rec.Stats(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	testkit.Section(&out, "stats")
	out.Write(stats)
	out.WriteByte('\n')

	reg := obs.NewRegistry()
	rec.Export(reg)
	testkit.Section(&out, "export")
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}

	testkit.Section(&out, "kept events")
	for _, ev := range rec.Snapshot() {
		fmt.Fprintf(&out, "%d %s %d %s %d %s\n", ev.Seq, ev.Path, ev.Status, ev.Outcome, ev.DurationNS, ev.KeepReason)
	}

	testkit.Section(&out, "bundles")
	bundles, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bundles {
		files, err := os.ReadDir(filepath.Join(dir, b.Name()))
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(files))
		for i, f := range files {
			names[i] = f.Name()
		}
		fmt.Fprintf(&out, "%s %s\n", b.Name(), strings.Join(names, ","))
	}

	testkit.GoldenString(t, "policy.golden", out.String())
}
