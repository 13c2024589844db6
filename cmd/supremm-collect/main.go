// Command supremm-collect runs the raw side of the SUPReMM pipeline on
// disk, the way production deployments do: a collection stage writes raw
// per-host node archives into a spool directory (TACC_Stats text format),
// and a summarization stage later scans the spool, reduces each job to
// its SUPReMM summary, and emits the labeled feature CSV that the
// classifiers consume.
//
// Usage:
//
//	supremm-collect -spool DIR [-jobs N] [-seed N]        # stage 1
//	supremm-collect -spool DIR -summarize [-o data.csv]   # stage 2
//
// Stage 2 emits only jobs Lariat could name, as supremm-gen does: the
// Uncategorized and NA populations carry no training label. For the same
// -seed and -jobs its CSV is byte-identical to supremm-gen's.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lariat"
	"repro/internal/rng"
	"repro/internal/summarize"
	"repro/internal/taccstats"
	"repro/internal/warehouse"
)

func main() {
	spool := flag.String("spool", "", "spool directory (required)")
	jobs := flag.Int("jobs", 500, "jobs to collect (stage 1)")
	seed := flag.Uint64("seed", 2014, "random seed")
	doSummarize := flag.Bool("summarize", false, "run stage 2: summarize the spool to CSV")
	out := flag.String("o", "", "stage 2 output CSV (default stdout)")
	flag.Parse()

	if *spool == "" {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *doSummarize {
		err = summarizeSpool(*spool, *out)
	} else {
		err = collect(*spool, *jobs, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "supremm-collect:", err)
		os.Exit(1)
	}
}

// labelsFile records the Lariat label per job next to the raw data.
const labelsFile = "labels.csv"

// collect generates a workload and writes raw archives into the spool.
func collect(spool string, jobs int, seed uint64) error {
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return err
	}
	gen := cluster.NewGenerator(cluster.Stampede(), cluster.DefaultConfig(seed))
	matcher := lariat.NewMatcher(apps.Catalog())
	root := rng.New(seed ^ 0xc011ec7)
	cfg := taccstats.DefaultConfig()

	lf, err := os.Create(filepath.Join(spool, labelsFile))
	if err != nil {
		return err
	}
	defer lf.Close()
	lw := csv.NewWriter(lf)
	if err := lw.Write([]string{"jobid", "label"}); err != nil {
		return err
	}

	for i := 0; i < jobs; i++ {
		j := gen.Next()
		arch := taccstats.Collect(cfg, taccstats.JobInfo{ID: j.ID, Start: j.Start, Hosts: j.Hosts}, j.Draw, root.Split(uint64(i)))
		if err := taccstats.WriteSpool(spool, arch); err != nil {
			return err
		}
		label, _ := matcher.LabelJob(j)
		if err := lw.Write([]string{j.ID, label}); err != nil {
			return err
		}
	}
	lw.Flush()
	if err := lw.Error(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "collected %d jobs into %s\n", jobs, spool)
	return nil
}

// summarizeSpool scans the spool, summarizes every job, joins the labels
// file, and writes the feature CSV.
func summarizeSpool(spool, out string) error {
	labels, err := readLabels(filepath.Join(spool, labelsFile))
	if err != nil {
		return err
	}
	jobIDs, err := taccstats.ListSpool(spool)
	if err != nil {
		return err
	}
	cfg := taccstats.DefaultConfig()
	opt := core.DefaultFeatures()
	var rows [][]float64
	var rowLabels []string
	summarized := 0
	for _, id := range jobIDs {
		arch, err := taccstats.ReadSpool(spool, id)
		if err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		sum, err := summarize.Summarize(arch, cfg, summarize.Options{})
		if err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		summarized++
		// Only jobs Lariat named carry a training label, as in
		// supremm-gen; a job missing from the labels file has none.
		label, ok := labels[id]
		if _, named := core.LabelByLariat(&warehouse.Record{AppLabel: label}); !ok || !named {
			continue
		}
		rows = append(rows, core.Featurize(sum, opt))
		rowLabels = append(rowLabels, label)
	}
	ds, err := dataset.New(core.FeatureNames(opt), rows, rowLabels)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := ds.WriteCSV(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "summarized %d jobs from %s\n", summarized, spool)
	return nil
}

func readLabels(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for i, rec := range recs {
		if i == 0 || len(rec) < 2 {
			continue
		}
		out[rec[0]] = rec[1]
	}
	return out, nil
}
