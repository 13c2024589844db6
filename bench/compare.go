package main

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// verdict of one workload x end-to-end metric comparison.
const (
	within     = "within"
	outside    = "outside"
	unresolved = "unresolved"
)

// comparison is one row of -compare's table.
type comparison struct {
	workload, metric string
	a, b             float64 // medians of the two sets
	worse            float64 // relative change in the metric's bad direction (negative = better)
	spread           float64 // the larger of the two sets' own IQR/median
	bound            float64
	verdict          string
}

// compareMetric judges set B against set A for one metric. A change is
// outside when B's median is worse than A's by more than the metric's
// bound; but when either set's own run-to-run spread exceeds the bound
// the sets cannot tell, and the row is unresolved rather than unchanged.
func compareMetric(d decl, a, b []float64) comparison {
	c := comparison{metric: d.name, a: stats.Median(a), b: stats.Median(b), bound: d.bound}
	c.spread = max(spread(a), spread(b))
	if c.a != 0 {
		c.worse = (c.b - c.a) / c.a
		if d.better == "higher" {
			c.worse = -c.worse
		}
	}
	switch {
	case c.spread > d.bound:
		c.verdict = unresolved
	case c.worse > d.bound:
		c.verdict = outside
	default:
		c.verdict = within
	}
	return c
}

// compareSets compares every workload x end-to-end metric both files
// measured (untraced runs only), in the benchmark's declared order.
func compareSets(a, b *resultFile) []comparison {
	values := func(rf *resultFile, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rf.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	var out []comparison
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := values(a, w.name, d.name), values(b, w.name, d.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := compareMetric(d, xa, xb)
			c.workload = w.name
			out = append(out, c)
		}
	}
	return out
}

// compareFiles prints one row per workload x metric and returns the exit
// code: 1 when any row is outside its bound or nothing was comparable.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var sets [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		rf, err := readResults(path)
		if err != nil {
			fmt.Fprintf(w, "bench: %v\n", err)
			return 1
		}
		sets[i] = rf
	}
	return printComparison(w, sets[0], sets[1])
}

func printComparison(w io.Writer, a, b *resultFile) int {
	fmt.Fprintf(w, "A: commit %s seed %d window %ds %s\n", a.Env.Commit, a.Env.Seed, a.Env.Seconds, a.Env.GoVersion)
	fmt.Fprintf(w, "B: commit %s seed %d window %ds %s\n", b.Env.Commit, b.Env.Seed, b.Env.Seconds, b.Env.GoVersion)
	rows := compareSets(a, b)
	code := 0
	if len(rows) == 0 {
		fmt.Fprintln(w, "no workload and metric measured by both sets")
		code = 1
	}
	fmt.Fprintf(w, "%-28s %-16s %14s %14s %9s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "worse by", "spread", "bound", "verdict")
	for _, c := range rows {
		fmt.Fprintf(w, "%-28s %-16s %14.4f %14.4f %+8.1f%% %7.1f%% %5.0f%%  %s\n",
			c.workload, c.metric, c.a, c.b, 100*c.worse, 100*c.spread, 100*c.bound, c.verdict)
		if c.verdict == outside {
			code = 1
		}
	}
	return code
}
