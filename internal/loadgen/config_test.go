package loadgen

import (
	"strings"
	"testing"
	"time"
)

func TestParseSpecMinimal(t *testing.T) {
	cfg, err := ParseSpec("url=http://127.0.0.1:8080,rps=100,dur=5s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BaseURL != "http://127.0.0.1:8080" || cfg.RPS != 100 || cfg.Duration != 5*time.Second {
		t.Fatalf("cfg = %+v", cfg)
	}
	// Defaults fill in.
	if cfg.BatchSize != defBatchSize || cfg.Timeout != defTimeout ||
		cfg.MaxInFlight != defMaxInFlight || cfg.Threshold != defThreshold {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestParseSpecFull(t *testing.T) {
	spec := "url=http://h:1,rps=250.5,dur=30s,ramp=5s,mix=0.25,batch=64,threshold=0.8,seed=42,timeout=2s,inflight=128"
	cfg, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		BaseURL: "http://h:1", RPS: 250.5, Duration: 30 * time.Second,
		Ramp: 5 * time.Second, BatchMix: 0.25, BatchSize: 64,
		Threshold: 0.8, Seed: 42, Timeout: 2 * time.Second, MaxInFlight: 128,
	}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
}

func TestParseSpecWhitespaceSeparators(t *testing.T) {
	cfg, err := ParseSpec("url=http://h:1 rps=10\tdur=1s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RPS != 10 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	orig, err := ParseSpec("url=http://h:1,rps=250.5,dur=30s,ramp=1500ms,mix=0.25,batch=64,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(orig.Spec())
	if err != nil {
		t.Fatalf("canonical spec %q does not re-parse: %v", orig.Spec(), err)
	}
	if back != orig {
		t.Fatalf("round trip diverged:\n orig: %+v\n back: %+v", orig, back)
	}
	if back.Spec() != orig.Spec() {
		t.Fatalf("spec render unstable: %q vs %q", back.Spec(), orig.Spec())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"   ",
		"rps=100,dur=5s",                               // missing url
		"url=ftp://h:1,rps=1,dur=1s",                   // bad scheme
		"url=http://h:1,dur=5s",                        // missing rps
		"url=http://h:1,rps=0,dur=5s",                  // zero rps
		"url=http://h:1,rps=NaN,dur=5s",                // NaN rps
		"url=http://h:1,rps=2e9,dur=5s",                // absurd rps
		"url=http://h:1,rps=1",                         // missing dur
		"url=http://h:1,rps=1,dur=0s",                  // zero dur
		"url=http://h:1,rps=1,dur=5s,ramp=6s",          // ramp > dur
		"url=http://h:1,rps=1,dur=5s,ramp=-1s",         // negative ramp
		"url=http://h:1,rps=1,dur=5s,mix=1.5",          // mix > 1
		"url=http://h:1,rps=1,dur=5s,dmix=-0.1",        // negative dmix
		"url=http://h:1,rps=1,dur=5s,dmix=2",           // dmix > 1
		"url=http://h:1,rps=1,dur=5s,mix=0.5,dmix=0.6", // mixes sum past 1
		"url=http://h:1,rps=1,dur=5s,batch=0",          // zero batch
		"url=http://h:1,rps=1,dur=5s,batch=5000",       // batch above server cap
		"url=http://h:1,rps=1,dur=5s,threshold=2",      // bad threshold
		"url=http://h:1,rps=1,dur=5s,timeout=0s",       // zero timeout
		"url=http://h:1,rps=1,dur=5s,inflight=0",       // zero inflight
		"url=http://h:1,rps=1,dur=5s,rps=2",            // duplicate key
		"url=http://h:1,rps=1,dur=5s,warp=9",           // unknown key
		"url=http://h:1,rps=1,dur=5s,batch",            // not k=v
		"url=http://h:1,rps=1,dur=5s,=x",               // empty key
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q parsed, want error", spec)
		}
	}
}

func TestArrivalScheduleMonotoneAndExact(t *testing.T) {
	cfg := Config{RPS: 100, Duration: 10 * time.Second, Ramp: 4 * time.Second}
	var prev time.Duration = -1
	count := int64(0)
	for k := int64(0); ; k++ {
		at := arrivalTime(cfg, k)
		if at < prev {
			t.Fatalf("arrival %d at %v before arrival %d at %v", k, at, k-1, prev)
		}
		prev = at
		if at >= cfg.Duration {
			break
		}
		count++
	}
	// Expected arrivals: ramp contributes RPS*Ramp/2 = 200, steady state
	// contributes RPS*(Duration-Ramp) = 600.
	if count < 790 || count > 810 {
		t.Fatalf("schedule yields %d arrivals, want ~800", count)
	}
	// Without ramp the schedule is uniform.
	flat := Config{RPS: 50, Duration: 2 * time.Second}
	if got := arrivalTime(flat, 25); got != time.Second/2 {
		t.Fatalf("flat arrival 25 at %v, want 500ms", got)
	}
}

func TestBuildBodyDeterministicAndMixed(t *testing.T) {
	cfg := Config{Seed: 7, BatchMix: 0.5, BatchSize: 4, Threshold: 0.5}
	sch := routeSchemas{
		classify: []string{"A", "B", "C"},
		discover: []string{"A", "B", "C"},
	}
	batches, singles := 0, 0
	for k := int64(0); k < 200; k++ {
		p1, b1 := buildBody(cfg, sch, k)
		p2, b2 := buildBody(cfg, sch, k)
		if p1 != p2 || string(b1) != string(b2) {
			t.Fatalf("arrival %d not deterministic", k)
		}
		switch p1 {
		case "/api/classify/batch":
			batches++
		case "/api/classify":
			singles++
		default:
			t.Fatalf("unexpected path %q", p1)
		}
	}
	if batches == 0 || singles == 0 {
		t.Fatalf("mix=0.5 produced batches=%d singles=%d", batches, singles)
	}
	// mix=0 and mix=1 are pure.
	for k := int64(0); k < 50; k++ {
		if p, _ := buildBody(Config{Seed: 7, BatchMix: 0, BatchSize: 4}, sch, k); p != "/api/classify" {
			t.Fatal("mix=0 issued a batch")
		}
		if p, _ := buildBody(Config{Seed: 7, BatchMix: 1, BatchSize: 4}, sch, k); p != "/api/classify/batch" {
			t.Fatal("mix=1 issued a single")
		}
	}
}

// TestBuildBodyRouteMix pins the three-way dice: one draw buckets batch,
// discovery assignment, and single classify in that order, so adding
// dmix=0 leaves historical traffic byte-identical and every route
// appears under a mixed spec.
func TestBuildBodyRouteMix(t *testing.T) {
	sch := routeSchemas{
		classify: []string{"A", "B", "C"},
		discover: []string{"D", "E"},
	}
	base := Config{Seed: 7, BatchMix: 0.25, BatchSize: 4, Threshold: 0.5}
	mixed := base
	mixed.DiscoverMix = 0.25
	counts := map[string]int{}
	for k := int64(0); k < 400; k++ {
		pb, bb := buildBody(base, sch, k)
		pm, bm := buildBody(mixed, sch, k)
		counts[pm]++
		// Arrivals the dice route identically must carry identical bodies:
		// dmix reuses the one mix draw, never consumes extra randomness.
		if pb == pm && string(bb) != string(bm) {
			t.Fatalf("arrival %d body diverges on shared route %s", k, pm)
		}
		if pm == "/api/discover/assign" &&
			(strings.Contains(string(bm), "threshold") || !strings.Contains(string(bm), `"D"`)) {
			t.Fatalf("assign body %s: want discovery schema, no threshold", bm)
		}
	}
	for _, route := range []string{"/api/classify", "/api/classify/batch", "/api/discover/assign"} {
		if counts[route] == 0 {
			t.Errorf("mixed spec never produced %s (counts %v)", route, counts)
		}
	}
	// dmix=0 reproduces the pre-knob dice exactly: route choice is batch
	// iff the one draw lands under mix, regardless of the new knob.
	for k := int64(0); k < 100; k++ {
		p, _ := buildBody(base, sch, k)
		if p != "/api/classify" && p != "/api/classify/batch" {
			t.Fatalf("dmix=0 issued %s", p)
		}
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize(nil); s.Count != 0 {
		t.Fatalf("empty summarize = %+v", s)
	}
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(100 - i) // reversed, summarize must sort
	}
	s := summarize(ms)
	if s.Count != 100 || s.Max != 100 || s.P50 != 50 || s.P99 != 99 {
		t.Fatalf("summarize = %+v", s)
	}
	if s.Mean < 50 || s.Mean > 51 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestSpecContainsEveryKey(t *testing.T) {
	cfg, err := ParseSpec("url=http://h:1,rps=1,dur=1s")
	if err != nil {
		t.Fatal(err)
	}
	spec := cfg.Spec()
	for _, key := range []string{"url=", "rps=", "dur=", "ramp=", "mix=", "dmix=", "batch=", "threshold=", "seed=", "timeout=", "inflight="} {
		if !strings.Contains(spec, key) {
			t.Errorf("canonical spec %q missing %q", spec, key)
		}
	}
}
