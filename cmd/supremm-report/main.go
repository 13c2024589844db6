// Command supremm-report generates a synthetic workload year and prints
// XDMoD-style warehouse reports: job counts, CPU hours, wall and wait
// times broken down by a chosen dimension.
//
// Usage:
//
//	supremm-report [-seed N] [-jobs N] [-sched] [-util]
//	               [-by application|category|user|population|jobsize|month]
//
// -sched routes the workload through the batch scheduler (FCFS + EASY
// backfill) so queue waits are emergent; -util prints the monthly
// utilization series instead of a group-by table.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/warehouse"
)

// maxGroups caps the group-by table: the user and application dimensions
// have long tails.
const maxGroups = 25

func main() {
	seed := flag.Uint64("seed", 2014, "random seed")
	jobs := flag.Int("jobs", 5000, "number of jobs to generate")
	by := flag.String("by", "application", "grouping dimension: application, category, user, population, jobsize, month")
	sched := flag.Bool("sched", false, "run the workload through the batch-scheduler simulation (FCFS + EASY backfill, emergent waits)")
	util := flag.Bool("util", false, "print the monthly utilization timeseries instead of a group-by report")
	flag.Parse()

	dim, err := warehouse.ParseDimension(*by)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supremm-report:", err)
		os.Exit(2)
	}

	cfg := core.DefaultPipelineConfig(*seed, *jobs)
	cfg.UseScheduler = *sched
	res, err := core.RunPipeline(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supremm-report:", err)
		os.Exit(1)
	}

	recs := warehouse.Records(res.Records)
	totals := recs.Totals()
	fmt.Printf("workload: %d jobs, %.0f CPU hours, %.0f wall hours\n\n",
		totals.Jobs, totals.CPUHours, totals.WallHours)

	if *util {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(w, "month\tjobs\tnode hours\tutilization\tavg wait (h)\n")
		for _, p := range recs.Utilization(cfg.Machine.TotalNodes()) {
			fmt.Fprintf(w, "%s\t%d\t%.0f\t%.2f%%\t%.2f\n",
				p.Month, p.Jobs, p.NodeHours, 100*p.Utilization, p.AvgWaitHours)
		}
		w.Flush()
		return
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s\tjobs\t%% mix\tcpu hours\tavg nodes\tavg wait (h)\tavg cpu user\n", dim)
	for i, g := range recs.GroupBy(dim) {
		if i >= maxGroups {
			break
		}
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.0f\t%.1f\t%.2f\t%.3f\n",
			g.Key, g.Jobs, g.MixPercent, g.CPUHours, g.AvgNodes, g.AvgWaitHrs, g.AvgCPUUser)
	}
	w.Flush()
}
