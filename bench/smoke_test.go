package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// TestSmoke runs every workload end to end for one second at test scale
// (and one of each daemon traced) and holds the run to the driver's contract:
// nothing failed, the oracle passed, and every declared metric of the
// mode was emitted exactly once with its unit.
func TestSmoke(t *testing.T) {
	c := testCorpus(t)
	type run struct {
		w      *workload
		trace  bool
		outDir string
		res    *result
		err    error
	}
	var runs []*run
	for _, w := range workloads {
		runs = append(runs, &run{w: w, outDir: t.TempDir()})
		if w.lifecycle || w.kind == kindIngest {
			runs = append(runs, &run{w: w, trace: true, outDir: t.TempDir()})
		}
	}
	// All at once: each run's window is a second of wall time however
	// little CPU it gets, and -parallel would only admit GOMAXPROCS.
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *run) {
			defer wg.Done()
			r.res, r.err = runWorkload(r.w, 2014, 1, r.trace, testScale(), r.outDir, c)
		}(r)
	}
	wg.Wait()
	for _, r := range runs {
		name := r.w.name
		if r.trace {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) { checkSmoke(t, r.w, r.res, r.err, r.outDir) })
	}
}

func checkSmoke(t *testing.T, w *workload, res *result, err error, outDir string) {
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	checkContractLine(t, res)
	if !res.Trace {
		for _, d := range endToEnd {
			if v := res.Metrics[d.name].Value; !(v > 0) {
				t.Errorf("end-to-end metric %s = %v; it must never be 0", d.name, v)
			}
		}
		return
	}
	if _, err := os.Stat(filepath.Join(outDir, traceName(w.name))); err != nil {
		t.Errorf("traced run left no trace file: %v", err)
	}
	nonzero := []string{"ingest.frame_decode_ns", "taccstats.chunk_decode_ns_per_record",
		"summarize.summarize_us_per_job", "warehouse.snapshot_ms", "ingest.records_summarized"}
	if w.kind != kindIngest {
		nonzero = []string{"server.roundtrip_us", "server.serve_http_serial_us", "server.json_decode_us",
			"core.classify_ns_per_row", "obs.flight.observed", "server.ok", "parallel.batch_speedup"}
		if cov := res.Metrics["server.replay_coverage"].Value; cov < 0.5 || cov > 1 {
			t.Errorf("replayed layers cover %.2f of the one-worker ServeHTTP span", cov)
		}
	}
	if w.lifecycle {
		nonzero = append(nonzero, "lifecycle.observe_ns_per_row", "lifecycle.rows_seen", "ml.ensemble.predict_ns_per_row")
		if res.Metrics["core.compiled"].Value != 0 {
			t.Error("the stack compiles now: update bench/README.md's prediction table")
		}
	}
	for _, name := range nonzero {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("per-layer metric %s = %v on a workload whose path crosses that layer", name, res.Metrics[name].Value)
		}
	}
}

// checkContractLine parses the driver's line back: exactly the four
// keys, and exactly the declared metrics of the mode, each with exactly
// a value and its declared unit.
func checkContractLine(t *testing.T, res *result) {
	t.Helper()
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("contract line has keys %v", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	decls := endToEnd
	if res.Trace {
		decls = perLayer
	}
	if len(metrics) != len(decls) {
		t.Errorf("%d metrics emitted, %d declared", len(metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := metrics[d.name]
		if !ok || len(m) != 2 || m["unit"] != d.unit {
			t.Errorf("metric %s emitted as %v, want a value and unit %q", d.name, m, d.unit)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// in step, and inside the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 || len(b.Paths) != 1 || b.Paths[0] != "bench" || b.RunSeconds < 10 {
		t.Errorf("size %d, paths %v, run_seconds %d", len(raw), b.Paths, b.RunSeconds)
	}
	if len(b.Command) != 2 || b.Command[1] != "bench/run.sh" {
		t.Errorf("command %v", b.Command)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d is %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []decl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared in BENCHMARK.json, %d in the package", kind, len(got), len(want))
		}
		for i, m := range got {
			name(m.Name)
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the package has %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v, package %v", kind, m.Name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s is required")
	}
}
