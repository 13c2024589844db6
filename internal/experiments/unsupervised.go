package experiments

import (
	"repro/internal/core"
	"repro/internal/ml/kmeans"
)

// ExpX4Unsupervised exercises the other two "data discovery techniques"
// the paper's Section II motivates -- clustering and dimensionality
// reduction -- on the SUPReMM job mixture: does the application/category
// structure the classifiers exploit emerge without labels? The fit
// itself (standardize -> PCA -> k-means) lives in core.FitDiscovery,
// the same artifact the serving layer hot-swaps behind /api/discover.
func ExpX4Unsupervised(e *Env) (*Result, error) {
	run, err := e.NativeRun()
	if err != nil {
		return nil, err
	}
	ds, err := core.BuildDataset(run.Records, core.LabelByCategory, core.DefaultFeatures())
	if err != nil {
		return nil, err
	}
	appDS, err := core.BuildDataset(run.Records, core.LabelByLariat, core.DefaultFeatures())
	if err != nil {
		return nil, err
	}

	r := newResult("x4", "unsupervised structure: k-means purity, PCA spectrum, unknown-app discovery")

	// Clustering at category granularity (k = 12) and application
	// granularity (k = #apps in the mix), in 10-component PCA space.
	dm12, err := core.FitDiscovery(ds.X, ds.FeatureNames, core.DiscoveryConfig{
		K: 12, Components: 10, Restarts: 4, Seed: e.Cfg.Seed + 71,
	})
	if err != nil {
		return nil, err
	}
	catPurity := kmeans.Purity(dm12.Labels, ds.Y)
	kApps := appDS.NumClasses()
	dmApps, err := core.FitDiscovery(appDS.X, appDS.FeatureNames, core.DiscoveryConfig{
		K: kApps, Components: 10, Restarts: 4, Seed: e.Cfg.Seed + 72,
	})
	if err != nil {
		return nil, err
	}
	appPurity := kmeans.Purity(dmApps.Labels, appDS.Y)
	r.Metrics["category_purity"] = catPurity
	r.Metrics["app_purity"] = appPurity
	r.addf("k-means k=12 purity vs broad category: %.3f", catPurity)
	r.addf("k-means k=%d purity vs application:     %.3f", kApps, appPurity)
	r.addf("(majority-category chance baselines: %.3f / %.3f)",
		majorityFrac(ds.Y, ds.NumClasses()), majorityFrac(appDS.Y, appDS.NumClasses()))

	// PCA spectrum: how many directions carry the mixture's variance.
	r.addf("")
	r.addf("PCA cumulative explained variance:")
	for _, c := range []int{1, 2, 3, 5, 10} {
		ev := dm12.PCA.ExplainedVariance(c)
		r.addf("  %2d components: %5.1f%%", c, 100*ev)
		r.Metrics[metricKey("pca", c)] = ev
	}

	// Discovery over the population the supervised path cannot name: the
	// Uncategorized and NA pools of Figures 3 and 4 (the native run above
	// is all community codes). This is the serving artifact's exact fit.
	uncat, na, err := e.UnknownPools()
	if err != nil {
		return nil, err
	}
	rows := append(append([][]float64(nil), uncat...), na...)
	if len(rows) < 16 { // too few Uncategorized/NA jobs for a meaningful fit
		r.Metrics["discovery_rows"] = float64(len(rows))
		r.addf("")
		r.addf("discovery skipped: only %d unlabeled jobs in this mixture", len(rows))
		return r, nil
	}
	disc, err := core.FitDiscovery(rows, core.FeatureNames(core.DefaultFeatures()), core.DiscoveryConfig{
		Seed: e.Cfg.Seed + 73,
	})
	if err != nil {
		return nil, err
	}
	anomalous := 0
	for _, c := range disc.Clusters {
		if c.Anomalous {
			anomalous++
		}
	}
	r.Metrics["discovery_rows"] = float64(disc.Rows)
	r.Metrics["discovery_anomalous_clusters"] = float64(anomalous)
	r.Metrics["discovery_ev5"] = disc.ExplainedVariance[len(disc.ExplainedVariance)-1]
	r.addf("")
	r.addf("discovery over %d unlabeled jobs (k=%d): %d anomalous clusters", disc.Rows, disc.K, anomalous)
	for _, c := range disc.Clusters {
		if c.Size == 0 {
			continue
		}
		flag := " "
		if c.Anomalous {
			flag = "!"
		}
		r.addf("  %s cluster %2d: %4d jobs (%4.1f%%), top deviation %s z=%+.2f",
			flag, c.ID, c.Size, 100*c.Share, c.TopDeviations[0].Feature, c.TopDeviations[0].Z)
	}
	return r, nil
}

// majorityFrac returns the share of the most common class.
func majorityFrac(y []int, k int) float64 {
	counts := make([]int, k)
	for _, v := range y {
		counts[v]++
	}
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	if len(y) == 0 {
		return 0
	}
	return float64(best) / float64(len(y))
}
