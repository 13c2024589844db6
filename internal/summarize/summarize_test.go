package summarize

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/taccstats"
)

// collectFor generates a raw archive for one app draw.
func collectFor(t *testing.T, appName string, seed uint64, force func(*apps.Signature)) (*taccstats.Archive, *apps.JobDraw) {
	t.Helper()
	a, ok := apps.ByName(appName)
	if !ok {
		t.Fatalf("missing app %s", appName)
	}
	sig := a.Sig
	if force != nil {
		force(&sig)
	}
	d := sig.Draw(rng.New(seed))
	hosts := make([]string, d.Nodes)
	for i := range hosts {
		hosts[i] = cluster.Stampede().Hostname(i)
	}
	arch := taccstats.Collect(taccstats.DefaultConfig(), taccstats.JobInfo{
		ID: "job", Start: 1_400_000_000, Hosts: hosts,
	}, d, rng.New(seed+1000))
	return arch, d
}

func TestSummaryRecoversRates(t *testing.T) {
	// Force a long, multi-node, well-sampled job and verify the summary
	// means land near the drawn job-level rates.
	arch, d := collectFor(t, "WRF", 42, func(s *apps.Signature) {
		s.WallLogMu = math.Log(8 * 3600)
		s.WallLogSigma = 0.01
		s.NodesLogMu = math.Log(8)
		s.NodesLogSigma = 0.01
		s.CatastropheProb = 0
	})
	s, err := Summarize(arch, taccstats.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != d.Nodes {
		t.Fatalf("nodes = %d, want %d", s.Nodes, d.Nodes)
	}
	if math.Abs(s.WallSeconds-d.WallSeconds) > 2 {
		t.Errorf("wall = %v, want %v", s.WallSeconds, d.WallSeconds)
	}
	// Multiplicative metrics: within 3x is fine given node/time noise,
	// but typical recovery should be much tighter; check 40% tolerance on
	// the stable ones.
	for _, m := range []apps.MetricID{apps.CPI, apps.CPLD, apps.MemUsed, apps.MemBW, apps.Flops} {
		rel := s.Means[m] / d.Rates[m]
		if rel < 0.6 || rel > 1.67 {
			t.Errorf("metric %v recovered ratio %v (got %v want %v)", m, rel, s.Means[m], d.Rates[m])
		}
	}
	// Fractions: absolute tolerance.
	if math.Abs(s.Means[apps.CPUUser]-d.Rates[apps.CPUUser]) > 0.12 {
		t.Errorf("cpu user = %v, want %v", s.Means[apps.CPUUser], d.Rates[apps.CPUUser])
	}
	sum := s.Means[apps.CPUUser] + s.Means[apps.CPUSystem] + s.Means[apps.CPUIdle]
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu fractions sum to %v", sum)
	}
}

func TestSummaryHandlesPMCRollover(t *testing.T) {
	// Long compute-heavy job wraps 48-bit counters; CPI must stay sane.
	arch, d := collectFor(t, "HPL", 7, func(s *apps.Signature) {
		s.WallLogMu = math.Log(12 * 3600)
		s.WallLogSigma = 0.01
		s.NodesLogMu = 0
		s.NodesLogSigma = 0.01
		s.CatastropheProb = 0
	})
	s, err := Summarize(arch, taccstats.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel := s.Means[apps.CPI] / d.Rates[apps.CPI]
	if rel < 0.7 || rel > 1.4 {
		t.Errorf("CPI through rollover: got %v want %v", s.Means[apps.CPI], d.Rates[apps.CPI])
	}
}

func TestSingleNodeCOVZero(t *testing.T) {
	arch, _ := collectFor(t, "MATLAB", 9, func(s *apps.Signature) {
		s.NodesLogMu = 0
		s.NodesLogSigma = 0.001
		s.CatastropheProb = 0
	})
	if len(arch.Nodes) != 1 {
		t.Skip("draw produced multi-node job")
	}
	s, err := Summarize(arch, taccstats.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
		if s.COVs[m] != 0 {
			t.Errorf("single-node COV[%v] = %v, want 0", m, s.COVs[m])
		}
	}
	if s.CPUUserImbalance != 0 {
		t.Errorf("single-node imbalance = %v", s.CPUUserImbalance)
	}
}

func TestMultiNodeCOVPositive(t *testing.T) {
	arch, _ := collectFor(t, "ENZO", 11, func(s *apps.Signature) {
		s.NodesLogMu = math.Log(12)
		s.NodesLogSigma = 0.01
		s.WallLogMu = math.Log(4 * 3600)
		s.WallLogSigma = 0.01
		s.CatastropheProb = 0
	})
	s, err := Summarize(arch, taccstats.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.COVs[apps.MemUsed] <= 0 {
		t.Error("multi-node MemUsed COV should be positive")
	}
	if s.COVs[apps.ScratchWrite] <= 0 {
		t.Error("multi-node ScratchWrite COV should be positive")
	}
}

func TestCatastropheMetric(t *testing.T) {
	healthy, _ := collectFor(t, "NAMD", 13, func(s *apps.Signature) {
		s.CatastropheProb = 0
		s.WallLogMu = math.Log(6 * 3600)
		s.WallLogSigma = 0.01
	})
	hs, err := Summarize(healthy, taccstats.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Catastrophe < 0.5 {
		t.Errorf("healthy job catastrophe = %v, want near 1", hs.Catastrophe)
	}
	crashed, _ := collectFor(t, "NAMD", 13, func(s *apps.Signature) {
		s.CatastropheProb = 1
		s.WallLogMu = math.Log(6 * 3600)
		s.WallLogSigma = 0.01
	})
	cs, err := Summarize(crashed, taccstats.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Catastrophe > 0.2 {
		t.Errorf("crashed job catastrophe = %v, want < 0.2", cs.Catastrophe)
	}
}

func TestImbalanceDetectsIdleNodes(t *testing.T) {
	arch, _ := collectFor(t, "GADGET", 17, func(s *apps.Signature) {
		s.NodesLogMu = math.Log(8)
		s.NodesLogSigma = 0.01
		s.NodeSigma[apps.CPUUser] = 2.5 // violent across-node imbalance
		s.CatastropheProb = 0
	})
	s, err := Summarize(arch, taccstats.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.CPUUserImbalance <= 0.05 {
		t.Errorf("imbalance = %v, want clearly positive", s.CPUUserImbalance)
	}
}

func TestTooFewSamples(t *testing.T) {
	a := &taccstats.Archive{JobID: "1", Nodes: []taccstats.NodeArchive{{
		Host: "c0", Samples: []taccstats.Sample{{Time: 100}},
	}}}
	if _, err := Summarize(a, taccstats.DefaultConfig(), Options{}); err == nil {
		t.Fatal("expected error for single-sample archive")
	}
}

func TestEmptyArchive(t *testing.T) {
	if _, err := Summarize(&taccstats.Archive{}, taccstats.DefaultConfig(), Options{}); err == nil {
		t.Fatal("expected error for empty archive")
	}
}

func TestSegments(t *testing.T) {
	arch, d := collectFor(t, "VASP", 19, func(s *apps.Signature) {
		s.WallLogMu = math.Log(10 * 3600)
		s.WallLogSigma = 0.01
		s.CatastropheProb = 0
	})
	s, err := Summarize(arch, taccstats.DefaultConfig(), Options{Segments: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.SegmentMeans) != 3 {
		t.Fatalf("segments = %d", len(s.SegmentMeans))
	}
	for i, seg := range s.SegmentMeans {
		rel := seg[apps.MemUsed] / d.Rates[apps.MemUsed]
		if rel < 0.4 || rel > 2.5 {
			t.Errorf("segment %d MemUsed ratio %v", i, rel)
		}
	}
}

func TestSegmentsSeeCatastropheTiming(t *testing.T) {
	arch, _ := collectFor(t, "NAMD", 23, func(s *apps.Signature) {
		s.CatastropheProb = 1
		s.WallLogMu = math.Log(9 * 3600)
		s.WallLogSigma = 0.01
	})
	s, err := Summarize(arch, taccstats.DefaultConfig(), Options{Segments: 3})
	if err != nil {
		t.Fatal(err)
	}
	// CPU activity in the final third must be below the first third.
	if s.SegmentMeans[2][apps.CPUUser] >= s.SegmentMeans[0][apps.CPUUser] {
		t.Errorf("segments did not capture collapse: first %v last %v",
			s.SegmentMeans[0][apps.CPUUser], s.SegmentMeans[2][apps.CPUUser])
	}
}

func TestShortJobTwoSamples(t *testing.T) {
	// 90-second job: begin+end only, one interval. Must summarize with
	// catastrophe = 1 (no second interval to compare).
	arch, _ := collectFor(t, "PYTHON", 29, func(s *apps.Signature) {
		s.WallLogMu = math.Log(95)
		s.WallLogSigma = 0.001
		s.CatastropheProb = 0
	})
	s, err := Summarize(arch, taccstats.DefaultConfig(), Options{Segments: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Catastrophe != 1 {
		t.Errorf("short-job catastrophe = %v, want 1", s.Catastrophe)
	}
	// Segment means degrade to node averages, not zeros.
	for i := range s.SegmentMeans {
		if s.SegmentMeans[i][apps.CPUUser] == 0 {
			t.Errorf("segment %d fell to zero on short job", i)
		}
	}
}

func BenchmarkSummarize(b *testing.B) {
	a, _ := apps.ByName("WRF")
	d := a.Sig.Draw(rng.New(1))
	hosts := make([]string, d.Nodes)
	for i := range hosts {
		hosts[i] = cluster.Stampede().Hostname(i)
	}
	arch := taccstats.Collect(taccstats.DefaultConfig(), taccstats.JobInfo{ID: "1", Start: 1_400_000_000, Hosts: hosts}, d, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(arch, taccstats.DefaultConfig(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSkipBadNodesToleratesCrashedNode(t *testing.T) {
	arch, _ := collectFor(t, "WRF", 31, func(s *apps.Signature) {
		s.NodesLogMu = math.Log(4)
		s.NodesLogSigma = 0.01
		s.CatastropheProb = 0
	})
	if len(arch.Nodes) < 2 {
		t.Skip("need multi-node job")
	}
	// Node 1 crashed right after the prolog: only one sample survives.
	arch.Nodes[1].Samples = arch.Nodes[1].Samples[:1]

	// Default: the whole job fails.
	if _, err := Summarize(arch, taccstats.DefaultConfig(), Options{}); err == nil {
		t.Fatal("expected failure without SkipBadNodes")
	}
	// Tolerant mode: job summarizes from the surviving nodes.
	s, err := Summarize(arch, taccstats.DefaultConfig(), Options{SkipBadNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != len(arch.Nodes)-1 {
		t.Errorf("nodes = %d, want %d", s.Nodes, len(arch.Nodes)-1)
	}
	if len(s.DroppedNodes) != 1 || s.DroppedNodes[0] != arch.Nodes[1].Host {
		t.Errorf("dropped = %v", s.DroppedNodes)
	}
}

func TestSkipBadNodesAllBad(t *testing.T) {
	a := &taccstats.Archive{JobID: "1", Nodes: []taccstats.NodeArchive{
		{Host: "c0", Samples: []taccstats.Sample{{Time: 1}}},
		{Host: "c1", Samples: []taccstats.Sample{{Time: 1}}},
	}}
	if _, err := Summarize(a, taccstats.DefaultConfig(), Options{SkipBadNodes: true}); err == nil {
		t.Fatal("all-bad job must still fail")
	}
}
