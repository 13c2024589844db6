package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/testkit"
)

// discoveryRows builds well-separated synthetic blobs so the k-means fit
// converges (Iters < MaxIter) and assignments are unambiguous.
func discoveryRows(seed uint64, k, perCluster, p int) [][]float64 {
	r := rng.New(seed)
	rows := make([][]float64, 0, k*perCluster)
	for c := 0; c < k; c++ {
		center := make([]float64, p)
		for j := range center {
			center[j] = float64((c+j)%k) * 10
		}
		for i := 0; i < perCluster; i++ {
			row := make([]float64, p)
			for j := range row {
				row[j] = center[j] + r.Normal()
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func discoveryFeatures(p int) []string {
	names := make([]string, p)
	for j := range names {
		names[j] = fmt.Sprintf("F%02d", j)
	}
	return names
}

func TestFitDiscoveryErrors(t *testing.T) {
	rows := discoveryRows(1, 2, 10, 4)
	feats := discoveryFeatures(4)
	if _, err := FitDiscovery(rows, nil, DiscoveryConfig{}); err == nil {
		t.Error("empty feature schema not rejected")
	}
	if _, err := FitDiscovery(rows[:1], feats, DiscoveryConfig{}); err == nil {
		t.Error("single row not rejected")
	}
	ragged := [][]float64{{1, 2, 3, 4}, {1, 2}}
	if _, err := FitDiscovery(ragged, feats, DiscoveryConfig{K: 2}); err == nil {
		t.Error("ragged rows not rejected")
	}
	if _, err := FitDiscovery(rows[:4], feats, DiscoveryConfig{K: 9}); err == nil {
		t.Error("k > rows not rejected")
	}
	if _, err := FitDiscovery(rows, feats, DiscoveryConfig{K: 2, Restarts: MaxDiscoveryRestarts}); err != nil {
		t.Errorf("restarts at the cap: %v", err)
	}

	// Validate is FitDiscovery's refusal rule, asked with only the
	// population's size: the same configs refuse with the same text.
	for _, tc := range []struct {
		name string
		rows [][]float64
		cfg  DiscoveryConfig
	}{
		{"single row", rows[:1], DiscoveryConfig{}},
		{"k > rows", rows[:4], DiscoveryConfig{K: 9}},
		{"default k > rows", rows[:4], DiscoveryConfig{}},
		{"restarts over the cap", rows, DiscoveryConfig{K: 2, Restarts: MaxDiscoveryRestarts + 1}},
	} {
		verr := tc.cfg.Validate(len(tc.rows), len(feats))
		_, ferr := FitDiscovery(tc.rows, feats, tc.cfg)
		if verr == nil || ferr == nil || verr.Error() != ferr.Error() {
			t.Errorf("%s: Validate %v, FitDiscovery %v; want the same refusal", tc.name, verr, ferr)
		}
	}
	if err := (DiscoveryConfig{Restarts: MaxDiscoveryRestarts + 1}).Validate(20, 4); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprint(MaxDiscoveryRestarts)) {
		t.Errorf("restarts refusal %v does not name the cap %d", err, MaxDiscoveryRestarts)
	}
}

// TestFitDiscoveryWorkerParity: the fit must be bit-identical at any
// restart concurrency — the acceptance criterion for deterministic
// serving refits.
func TestFitDiscoveryWorkerParity(t *testing.T) {
	rows := discoveryRows(7, 4, 40, 6)
	feats := discoveryFeatures(6)
	digest := func(workers int) string {
		m, err := FitDiscovery(rows, feats, DiscoveryConfig{K: 4, Restarts: 6, Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var flat []float64
		for _, ctr := range m.Centers {
			flat = append(flat, ctr...)
		}
		flat = append(flat, m.Inertia, m.AnomalyDistance)
		flat = append(flat, m.ExplainedVariance...)
		for _, l := range m.Labels {
			flat = append(flat, float64(l))
		}
		return testkit.HashFloats(flat)
	}
	want := digest(1)
	for _, w := range []int{2, 4, 8} {
		if got := digest(w); got != want {
			t.Fatalf("workers=%d digest %s != workers=1 digest %s", w, got, want)
		}
	}
}

// TestAssignMatchesTrainingLabels: on a converged fit, scoring a
// training row reproduces its training assignment exactly (the same
// standardize/project/nearest arithmetic runs in both paths).
func TestAssignMatchesTrainingLabels(t *testing.T) {
	rows := discoveryRows(3, 3, 50, 5)
	feats := discoveryFeatures(5)
	m, err := FitDiscovery(rows, feats, DiscoveryConfig{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iters >= 100 {
		t.Fatalf("fit did not converge (%d iters); pick better-separated data", m.Iters)
	}
	for i, row := range rows {
		a, err := m.Assign(row)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cluster != m.Labels[i] {
			t.Fatalf("row %d: Assign cluster %d != training label %d", i, a.Cluster, m.Labels[i])
		}
	}
	// Wrong widths error, never panic (the serving 400 path).
	if _, err := m.Assign(rows[0][:3]); err == nil {
		t.Error("short row not rejected")
	}
	if _, err := m.Assign(append([]float64(nil), append(rows[0], 1)...)); err == nil {
		t.Error("long row not rejected")
	}
	// A far outlier must be flagged anomalous.
	far := make([]float64, 5)
	for j := range far {
		far[j] = 1e6
	}
	a, err := m.Assign(far)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Anomalous {
		t.Error("extreme outlier not flagged anomalous")
	}
}

func TestDiscoveryClusterSummaries(t *testing.T) {
	rows := discoveryRows(5, 3, 30, 4)
	feats := discoveryFeatures(4)
	m, err := FitDiscovery(rows, feats, DiscoveryConfig{K: 3, Seed: 4, TopFeatures: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	var share float64
	for _, c := range m.Clusters {
		total += c.Size
		share += c.Share
		if c.Size == 0 {
			continue
		}
		if len(c.TopDeviations) != 2 {
			t.Fatalf("cluster %d: %d top deviations, want 2", c.ID, len(c.TopDeviations))
		}
		if math.Abs(c.TopDeviations[0].Z) < math.Abs(c.TopDeviations[1].Z) {
			t.Fatalf("cluster %d: deviations not sorted by |z|", c.ID)
		}
		if len(c.Center) != len(feats) {
			t.Fatalf("cluster %d: center has %d features", c.ID, len(c.Center))
		}
	}
	if total != len(rows) {
		t.Fatalf("cluster sizes sum to %d, want %d", total, len(rows))
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("cluster shares sum to %v, want 1", share)
	}
	if len(m.ExplainedVariance) == 0 || m.ExplainedVariance[0] <= 0 {
		t.Fatal("explained variance curve missing")
	}
	for i := 1; i < len(m.ExplainedVariance); i++ {
		if m.ExplainedVariance[i] < m.ExplainedVariance[i-1] {
			t.Fatal("explained variance curve not monotone")
		}
	}
}

// TestGoldenDiscovery pins the full discovery artifact — cluster table,
// spectrum, anomaly threshold — so refactors of the fit path cannot
// silently move the served numbers.
func TestGoldenDiscovery(t *testing.T) {
	rows := discoveryRows(11, 4, 35, 6)
	feats := discoveryFeatures(6)
	m, err := FitDiscovery(rows, feats, DiscoveryConfig{K: 4, Restarts: 6, Seed: 2015, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	testkit.Section(&b, "core.FitDiscovery / blobs seed 11, fit seed 2015")
	b.WriteString(testkit.KeyVals(map[string]float64{
		"rows":             float64(m.Rows),
		"k":                float64(m.K),
		"inertia":          m.Inertia,
		"anomaly_distance": m.AnomalyDistance,
	}))
	testkit.Section(&b, "explained variance")
	for c, ev := range m.ExplainedVariance {
		fmt.Fprintf(&b, "c=%d %s\n", c+1, testkit.Float(ev))
	}
	testkit.Section(&b, "clusters")
	for _, c := range m.Clusters {
		fmt.Fprintf(&b, "cluster %d size=%d share=%s anomalous=%v meanDist=%s\n",
			c.ID, c.Size, testkit.Float(c.Share), c.Anomalous, testkit.Float(c.MeanDistance))
		names := make([]string, 0, len(c.Center))
		for name := range c.Center {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  center[%s] = %s\n", name, testkit.Float(c.Center[name]))
		}
		for _, d := range c.TopDeviations {
			fmt.Fprintf(&b, "  dev %s z=%s\n", d.Feature, testkit.Float(d.Z))
		}
	}
	testkit.Section(&b, "labels")
	fmt.Fprintf(&b, "labels = %s\n", testkit.HashInts(m.Labels))
	testkit.GoldenString(t, "discovery.golden", b.String())
}
