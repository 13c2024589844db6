package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// parent 1 (100ns) has children 2 (30ns) and 3 (50ns); 3 has child 4
	// (20ns). Child 5 replays part of parent 1 after 1 has ended: it is
	// subtracted by duration even though its interval lies outside.
	spans := []span{
		{ID: 1, Name: "server.serve_http_serial", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.json_decode", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "core.classify", Start: 30, End: 80},
		{ID: 4, Parent: 3, Name: "ml.compile.predict", Start: 35, End: 55},
		{ID: 5, Parent: 1, Name: "server.json_encode", Start: 200, End: 215},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 5, 2: 30, 3: 30, 4: 20, 5: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Children that sum past their parent floor it at zero.
	over := selfTimes([]span{{ID: 1, End: 10}, {ID: 2, Parent: 1, End: 8}, {ID: 3, Parent: 1, End: 8}})
	if over[1] != 0 {
		t.Errorf("over-covered parent has self time %d, want 0", over[1])
	}
}

func TestRecorderSpansAndFlush(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("ingest.replay", "r", 0, 16)
	child := rec.begin("ingest.frame_encode", "job-1", root, 8)
	rec.end(child)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != root || rec.spans[0].End < rec.spans[1].End {
		t.Fatalf("unexpected spans: %+v", rec.spans)
	}
	if got := rec.byName("ingest.frame_encode", true); len(got) != 1 || got[0] != float64(rec.spans[1].dur())/8 {
		t.Errorf("per-item duration = %v", got)
	}
	var none *recorder
	if none.begin("x", "", 0, 0) != 0 || none.end(0) != 0 {
		t.Error("a nil recorder must record nothing")
	}
	path, err := rec.flush(t.TempDir(), "ingest-stream", 1)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "ingest-stream.trace.json" {
		t.Errorf("trace written to %s", path)
	}
}

// PR 6 lost its baseline because its name matched the root .gitignore.
// Nothing the benchmark writes or commits may match those patterns.
func TestOutputNamesDodgeRootGitignore(t *testing.T) {
	names := []string{"part-123.json"}
	for _, w := range workloads {
		names = append(names, traceName(w.name))
	}
	for _, name := range names {
		for _, pattern := range []string{"BENCH_*.json", "trace.json", "coverage.out", "soak-report.json"} {
			if ok, _ := filepath.Match(pattern, name); ok {
				t.Errorf("output %q matches the root .gitignore pattern %q", name, pattern)
			}
		}
	}
}
