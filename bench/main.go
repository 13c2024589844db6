// Command bench is the repository's benchmark: five seeded workloads
// across both daemons (the classification API of supremm-serve and the
// streaming write path of supremm-ingestd), each booted in-process on a
// loopback socket and driven closed-loop from the same process.
//
//	bench -workload <name|all> [-seed N] [-seconds N] [-trace 0|1] [-runs N] [-out FILE]
//	bench -compare A.json B.json
//
// One run prints every metric by name and unit, checks the program's
// outputs against an oracle, and ends with one JSON line for the
// driver. See README.md in this directory for the definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// value is one reported metric. N is the number of samples behind a
// median or percentile (0 for plain counts and totals).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Problems lists every oracle or ledger check that failed.
	Problems []string `json:"problems,omitempty"`
}

// set records a metric; a name may be set once.
func (r *result) set(name string, v float64, n int) {
	if _, dup := r.Metrics[name]; dup {
		r.problem("metric %s emitted twice", name)
	}
	r.Metrics[name] = value{Value: v, N: n}
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// finish attaches units and checks the run emitted exactly the declared
// metrics of its mode. Per-layer metrics a workload never touches are 0.
func (r *result) finish() {
	decls := endToEnd
	if r.Trace {
		decls = perLayer
	}
	known := map[string]bool{}
	for _, d := range decls {
		known[d.name] = true
		v, ok := r.Metrics[d.name]
		if !ok && !r.Trace {
			r.problem("end-to-end metric %s not measured", d.name)
		}
		v.Unit = d.unit
		r.Metrics[d.name] = v
	}
	for name := range r.Metrics {
		if !known[name] {
			r.problem("metric %s is not declared", name)
		}
	}
	if r.Attempted < 1 {
		r.problem("nothing attempted")
	}
	if r.Failed > 0 {
		r.problem("%d of %d operations failed", r.Failed, r.Attempted)
	}
}

// contractLine is the last line of standard output: exactly the keys the
// driver reads, values with all their digits.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

func (r *result) print() {
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  n=%d", v.N)
		}
		fmt.Printf("  %-40s %16.4f %-6s%s\n", name, v.Value, v.Unit, n)
	}
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}

// envBlock says where a result file was measured.
type envBlock struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"window_seconds"`
}

func environment(seed uint64, seconds int) envBlock {
	env := envBlock{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Kernel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// The commit is whatever the Go toolchain stamped at build time; a
	// checkout that is not a git repository has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  envBlock `json:"env"`
	Runs []result `json:"runs"`
}

func writeResults(path string, env envBlock, runs []result) error {
	b, err := json.MarshalIndent(resultFile{Env: env, Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 2014, "input seed")
	seconds := fs.Int("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics from an outside replay")
	runs := fs.Int("runs", 1, "with -workload all: runs per workload")
	out := fs.String("out", "", "write the full results (with environment block) to this file")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "directory for trace files")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive, -trace 0 or 1")
		return 2
	}
	env := environment(*seed, *seconds)

	if *name == "all" {
		return runAll(env, *trace, *runs, *out, *outDir)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, fullScale(), *outDir, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res.print()
	if *out != "" {
		if err := writeResults(*out, env, []result{*res}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Println(res.contractLine())
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload once in this process. c is the serving
// corpus when the caller already holds the one this scale gives (the
// tests share one); nil generates it.
func runWorkload(w *workload, seed uint64, seconds int, trace bool, sc scale, outDir string, c *corpus) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: true, Metrics: map[string]value{}}
	var rec *recorder
	if trace {
		rec = newRecorder()
		sc.setups = 1
	}
	if w.kind == kindIngest {
		if err := runIngest(res, w, seed, seconds, sc, rec); err != nil {
			return nil, err
		}
	} else {
		if c == nil {
			var err error
			if c, err = genCorpus(sc.corpusJobs); err != nil {
				return nil, err
			}
		}
		if err := runServing(res, w, c, seed, seconds, sc, rec); err != nil {
			return nil, err
		}
	}
	if trace {
		path, err := rec.flush(outDir, w.name, seed)
		if err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace: %d spans -> %s\n", len(rec.spans), path)
	}
	res.finish()
	return res, nil
}

// runAll runs every workload in a child process of its own, so heap, GC
// state and peak RSS are per workload, and gathers the children's
// results into one set.
func runAll(env envBlock, trace, runs int, out, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	part := filepath.Join(outDir, fmt.Sprintf("part-%d.json", os.Getpid()))
	defer os.Remove(part)
	var all []result
	code := 0
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(env.Seed),
				"-seconds", fmt.Sprint(env.Seconds), "-trace", fmt.Sprint(trace),
				"-outdir", outDir, "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			rf, err := readResults(part)
			if err != nil || len(rf.Runs) != 1 {
				fmt.Fprintf(os.Stderr, "bench: %s gave no result: %v %v\n", w.name, runErr, err)
				return 1
			}
			os.Remove(part)
			all = append(all, rf.Runs[0])
			if runErr != nil {
				code = 1
			}
		}
	}
	if out != "" {
		if err := writeResults(out, env, all); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}
