// Command supremm-paper regenerates every table and figure of the paper
// from a synthetic Stampede workload.
//
// Usage:
//
//	supremm-paper [-seed N] [-exp id[,id...]] [-train N] [-test N] [-unknown N]
//	              [-workers N] [-trace out.json]
//
// With no -exp it runs the full suite in paper order (e1, e2, table2,
// fig1, fig2, fig3, table3, fig4, fig5, fig6, x1, x2, x3, x4).
// Independent experiments run concurrently (bounded by -workers); results
// are printed in paper order and are bit-identical at any worker count
// (wall times go to stderr, so stdout is the transcript).
//
// -trace writes a hierarchical span tree (JSON) covering every shared
// dataset build, pipeline stage and experiment, and prints a rendered
// timing summary to stderr. Tracing never touches the experiment RNG
// streams, so traced and untraced runs emit identical results.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/parallel"
)

func main() {
	seed := flag.Uint64("seed", 2014, "master random seed")
	exp := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	train := flag.Int("train", 0, "training jobs per class (default 300)")
	test := flag.Int("test", 0, "native-mix test jobs (default 4000)")
	unknown := flag.Int("unknown", 0, "jobs per unknown pool (default 1200)")
	workers := flag.Int("workers", 0, "concurrent experiments (0 = all cores, 1 = serial)")
	trace := flag.String("trace", "", "write a span-tree trace of the run to this JSON file")
	flag.Parse()

	log := obs.NewLogger(os.Stderr, obs.LevelWarn)
	var root *obs.Span // nil (no-op) unless -trace is set
	if *trace != "" {
		root = obs.NewSpan("suite")
	}

	cfg := experiments.DefaultConfig(*seed)
	cfg.Obs = core.Instrumentation{Span: root, Log: log}
	if *train > 0 {
		cfg.TrainPerClass = *train
	}
	if *test > 0 {
		cfg.TestJobs = *test
	}
	if *unknown > 0 {
		cfg.UnknownJobs = *unknown
	}
	env := experiments.NewEnv(cfg)

	ids := experiments.IDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	// Results come back in input (paper) order regardless of completion
	// order.
	suiteStart := time.Now()
	out, err := experiments.RunSelected(env, ids, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, experiments.ErrUnknownID) {
			os.Exit(2)
		}
		os.Exit(1)
	}

	for _, res := range out {
		fmt.Println(res.String())
		fmt.Fprintf(os.Stderr, "(%s in %v)\n", res.ID, res.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "(suite: %d experiments in %v on %d workers)\n",
		len(ids), time.Since(suiteStart).Round(time.Millisecond), parallel.Workers(*workers))

	if *trace != "" {
		root.End()
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "supremm-paper: trace:", err)
			os.Exit(1)
		}
		if err := root.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "supremm-paper: trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n%s", *trace, root.Summary())
	}
}
