package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (the program itself is not instrumented in this PR). Spans of
// one request share Req; Parent is the ID of the span whose work this
// one is part of (0 = a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"` // rows / records the call covered
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory and writes them out once, at exit. It
// is used from the harness's single replay goroutine (plus one goroutine
// per contended-lock probe, which record into their own recorder), so it
// carries no lock. A nil recorder records nothing.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (r *recorder) begin(name, req string, parent, items int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Items: items,
		Start: int64(time.Since(r.t0)),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	return s.dur()
}

// add records an interval that was timed elsewhere (set-up steps).
func (r *recorder) add(name, req string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := int64(start.Sub(r.t0))
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Req: req, Start: s, End: s + int64(d)})
}

// selfTimes returns, per span ID, the span's duration minus the summed
// durations of its direct children, floored at zero. The harness calls
// layers serially, so a span's children never overlap and their summed
// duration is the part of the parent they account for. That also holds
// for replayed children, which re-perform a parent's work after the
// parent itself has returned (see replayServing): their interval lies
// outside the parent's, but their duration is still what is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, d := range self {
		if d < 0 {
			self[id] = 0
		}
	}
	return self
}

// byName groups span durations (in the given unit per item when perItem
// is set) by span name, in recording order.
func (r *recorder) byName(name string, perItem bool) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		v := float64(s.dur())
		if perItem && s.Items > 0 {
			v /= float64(s.Items)
		}
		out = append(out, v)
	}
	return out
}

// traceFile is what a traced run leaves under bench/out/.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Env      envBlock `json:"env"`
	Spans    []span   `json:"spans"`
}

// flush writes the spans to dir/<workload>.trace.json. The name must
// never match the root .gitignore's BENCH_*.json / trace.json patterns
// (that is how an earlier baseline was lost); "<workload>.trace.json"
// does not, and a test pins it.
func (r *recorder) flush(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, traceName(workload))
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Env: environment(seed, 0), Spans: r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func traceName(workload string) string { return workload + ".trace.json" }
