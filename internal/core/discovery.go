package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/ml/kmeans"
	"repro/internal/ml/pca"
	"repro/internal/stats"
)

// This file is the reusable unsupervised-discovery module extracted from
// the x4 experiment: standardize -> PCA -> k-means over a job
// population, summarized per cluster. The serving layer uses it to mine
// the Uncategorized/NA population for emergent application signatures
// (the paper's Section IV.A inefficiency rule, learned instead of
// hand-coded); the experiment reuses the same fit for its purity and
// spectrum metrics.

// DiscoveryConfig controls an unsupervised discovery fit. The zero value
// of any field selects its default.
type DiscoveryConfig struct {
	K           int    // clusters (default 8)
	Components  int    // retained principal components (default 5, capped at #features)
	Restarts    int    // k-means restarts, best inertia wins (default 8)
	Seed        uint64 // fit RNG seed; same seed => bit-identical model
	Workers     int    // restart concurrency; <=0 = GOMAXPROCS (result identical at any value)
	TopFeatures int    // deviating features reported per cluster (default 5)
}

const (
	// MaxDiscoveryRestarts caps DiscoveryConfig.Restarts (8× the
	// default): each restart is one more k-means fit and result slot.
	MaxDiscoveryRestarts = 64
	// anomalyZ is the |center z-score| that flags a cluster anomalous.
	anomalyZ = 2
	// anomalyQuantile is the training-distance quantile beyond which
	// Assign flags a job.
	anomalyQuantile = 0.95
)

func (cfg DiscoveryConfig) withDefaults(p int) DiscoveryConfig {
	if cfg.K <= 0 {
		cfg.K = 8
	}
	if cfg.Components <= 0 {
		cfg.Components = 5
	}
	if cfg.Components > p {
		cfg.Components = p
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 8
	}
	if cfg.TopFeatures <= 0 {
		cfg.TopFeatures = 5
	}
	if cfg.TopFeatures > p {
		cfg.TopFeatures = p
	}
	return cfg
}

// Validate is FitDiscovery's refusal rule, asked with only the size of
// the population (rows jobs of features attributes): too few rows, k
// above rows once defaults apply, or restarts above MaxDiscoveryRestarts.
func (cfg DiscoveryConfig) Validate(rows, features int) error {
	if features == 0 {
		return errors.New("core: discovery needs a non-empty feature schema")
	}
	if rows < 2 {
		return fmt.Errorf("core: discovery needs at least 2 rows, got %d", rows)
	}
	cfg = cfg.withDefaults(features)
	if cfg.K > rows {
		return fmt.Errorf("core: discovery k=%d exceeds %d rows", cfg.K, rows)
	}
	if cfg.Restarts > MaxDiscoveryRestarts {
		return fmt.Errorf("core: discovery restarts=%d exceeds the cap of %d", cfg.Restarts, MaxDiscoveryRestarts)
	}
	return nil
}

// FeatureDeviation is one feature's standardized displacement of a
// cluster center from the population mean.
type FeatureDeviation struct {
	Feature string  `json:"feature"`
	Z       float64 `json:"z"`
}

// ClusterSummary describes one discovered cluster in decision-support
// terms: how big it is, where it sits in original feature units, which
// features pull it away from the population, and whether that pull is
// strong enough to flag the cluster anomalous.
type ClusterSummary struct {
	ID            int                `json:"id"`
	Size          int                `json:"size"`
	Share         float64            `json:"share"`
	Anomalous     bool               `json:"anomalous"`
	MeanDistance  float64            `json:"meanDistance"` // mean member distance to center, PCA space
	Center        map[string]float64 `json:"center"`       // original (unstandardized) feature units
	TopDeviations []FeatureDeviation `json:"topDeviations"`
}

// DiscoveryModel is one immutable fitted discovery artifact. All slices
// and maps are treated as frozen after FitDiscovery returns; serve it
// through a DiscoveryManager to hot-swap refits atomically.
type DiscoveryModel struct {
	Features []string
	K        int
	Seed     uint64
	Rows     int

	Scaler  *stats.Scaler
	PCA     *pca.Model
	Centers [][]float64 // k-means centers in PCA space
	Labels  []int       // training-row cluster assignment
	Inertia float64
	Iters   int

	// ExplainedVariance[c] is the cumulative variance fraction captured
	// by the first c+1 retained components (the knee of this curve is
	// how many directions the population really spans).
	ExplainedVariance []float64
	Clusters          []ClusterSummary
	// AnomalyDistance is the fitted anomalyQuantile of training-row
	// distances to their centers; Assign flags rows beyond it.
	AnomalyDistance float64
}

// FeatureNames and Serving make the fit Servable behind a
// DiscoveryManager; discovery has no compiled form.
func (m *DiscoveryModel) FeatureNames() []string { return m.Features }

func (m *DiscoveryModel) Serving() (algo string, compiled bool) { return "pca+kmeans", false }

// OutOfRange is JobClassifier.OutOfRange's rule for a discovery fit:
// the features of raw row x whose standardized value float64 can no
// longer square. Such a value overflows the projection or the distance
// Assign reports; a caller that has just seen a non-finite one asks here
// which inputs to blame.
func (m *DiscoveryModel) OutOfRange(x []float64) []string {
	return outOfRange(m.Scaler, m.Features, x)
}

// Assignment scores one job against a fitted discovery model.
type Assignment struct {
	Cluster          int       `json:"cluster"`
	Distance         float64   `json:"distance"`
	Anomalous        bool      `json:"anomalous"`        // beyond the fitted training-distance quantile
	ClusterAnomalous bool      `json:"clusterAnomalous"` // the assigned cluster itself is flagged
	Projection       []float64 `json:"projection"`
}

// FitDiscovery fits the discovery artifact over rows (one feature vector
// per job, all of width len(features)). The fit is deterministic for a
// fixed cfg.Seed at any cfg.Workers setting: k-means restarts own split
// RNG streams keyed by restart index.
func FitDiscovery(rows [][]float64, features []string, cfg DiscoveryConfig) (*DiscoveryModel, error) {
	p := len(features)
	if err := cfg.Validate(len(rows), p); err != nil {
		return nil, err
	}
	for i, row := range rows {
		if len(row) != p {
			return nil, fmt.Errorf("core: discovery row %d has %d features, schema has %d", i, len(row), p)
		}
	}
	cfg = cfg.withDefaults(p)

	// Standardize a copy so centers can be reported in original units.
	std := make([][]float64, len(rows))
	for i, row := range rows {
		std[i] = append([]float64(nil), row...)
	}
	scaler := stats.FitScaler(std)
	scaler.TransformAll(std)

	pm, err := pca.Fit(std, cfg.Components)
	if err != nil {
		return nil, fmt.Errorf("core: discovery pca: %w", err)
	}
	proj, err := pm.TransformAll(std)
	if err != nil {
		return nil, fmt.Errorf("core: discovery projection: %w", err)
	}
	km, err := kmeans.Fit(proj, kmeans.Config{
		K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("core: discovery kmeans: %w", err)
	}

	m := &DiscoveryModel{
		Features: append([]string(nil), features...),
		K:        cfg.K,
		Seed:     cfg.Seed,
		Rows:     len(rows),
		Scaler:   scaler,
		PCA:      pm,
		Centers:  km.Centers,
		Labels:   km.Labels,
		Inertia:  km.Inertia,
		Iters:    km.Iters,
	}
	m.ExplainedVariance = make([]float64, cfg.Components)
	for c := range m.ExplainedVariance {
		m.ExplainedVariance[c] = pm.ExplainedVariance(c + 1)
	}

	// Per-cluster aggregates: mean original row (the center in original
	// units), mean standardized row (the z-profile), member distances.
	sumOrig := make([][]float64, cfg.K)
	sumZ := make([][]float64, cfg.K)
	counts := make([]int, cfg.K)
	sumDist := make([]float64, cfg.K)
	for c := range sumOrig {
		sumOrig[c] = make([]float64, p)
		sumZ[c] = make([]float64, p)
	}
	dists := make([]float64, len(rows))
	for i, row := range rows {
		c := km.Labels[i]
		counts[c]++
		for j, v := range row {
			sumOrig[c][j] += v
			sumZ[c][j] += std[i][j]
		}
		d := euclid(proj[i], km.Centers[c])
		dists[i] = d
		sumDist[c] += d
	}
	m.AnomalyDistance = stats.Quantile(dists, anomalyQuantile)

	m.Clusters = make([]ClusterSummary, cfg.K)
	for c := 0; c < cfg.K; c++ {
		cs := ClusterSummary{ID: c, Size: counts[c], Center: map[string]float64{}}
		if counts[c] == 0 {
			m.Clusters[c] = cs
			continue
		}
		n := float64(counts[c])
		cs.Share = n / float64(len(rows))
		cs.MeanDistance = sumDist[c] / n
		devs := make([]FeatureDeviation, p)
		for j, name := range features {
			cs.Center[name] = sumOrig[c][j] / n
			devs[j] = FeatureDeviation{Feature: name, Z: sumZ[c][j] / n}
		}
		sort.SliceStable(devs, func(a, b int) bool {
			return math.Abs(devs[a].Z) > math.Abs(devs[b].Z)
		})
		cs.TopDeviations = devs[:cfg.TopFeatures]
		cs.Anomalous = math.Abs(cs.TopDeviations[0].Z) >= anomalyZ
		m.Clusters[c] = cs
	}
	return m, nil
}

// Assign scores one job row (original feature units, model feature
// order) against the fitted model. Rows of the wrong width error —
// never panic — so the serving path can map this to a 400.
func (m *DiscoveryModel) Assign(row []float64) (*Assignment, error) {
	if len(row) != len(m.Features) {
		return nil, fmt.Errorf("core: assign row has %d features, model fitted on %d", len(row), len(m.Features))
	}
	std := append([]float64(nil), row...)
	m.Scaler.Transform(std)
	proj, err := m.PCA.Transform(std)
	if err != nil {
		return nil, err
	}
	best, bestD := 0, math.Inf(1)
	for c, ctr := range m.Centers {
		if d := euclid(proj, ctr); d < bestD {
			best, bestD = c, d
		}
	}
	return &Assignment{
		Cluster:          best,
		Distance:         bestD,
		Anomalous:        bestD > m.AnomalyDistance,
		ClusterAnomalous: m.Clusters[best].Anomalous,
		Projection:       proj,
	}, nil
}

func euclid(a, b []float64) float64 {
	var d float64
	for j := range a {
		diff := a[j] - b[j]
		d += diff * diff
	}
	return math.Sqrt(d)
}
