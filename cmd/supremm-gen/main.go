// Command supremm-gen generates a synthetic SUPReMM job dataset -- the
// full pipeline of workload generation, TACC_Stats collection, Lariat
// labeling and summarization -- and writes it as CSV (label column first,
// then the SUPReMM attributes).
//
// Usage:
//
//	supremm-gen [-seed N] [-jobs N] [-o file]
//
// Only jobs Lariat could name are emitted: the Uncategorized and NA
// populations carry no training label.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	seed := flag.Uint64("seed", 2014, "random seed")
	jobs := flag.Int("jobs", 10000, "number of jobs to generate")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	res, err := core.RunPipeline(core.DefaultPipelineConfig(*seed, *jobs))
	if err != nil {
		fatal(err)
	}
	ds, err := core.BuildDataset(res.Records, core.LabelByLariat, core.DefaultFeatures())
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := ds.WriteCSV(w); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d jobs (%d features, %d classes); %d of %d generated jobs labeled\n",
		ds.Len(), ds.NumFeatures(), ds.NumClasses(), ds.Len(), len(res.Records))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "supremm-gen:", err)
	os.Exit(1)
}
