package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
)

func TestMachineHostnames(t *testing.T) {
	m := Stampede()
	if m.TotalNodes() != 6400 {
		t.Fatalf("stampede nodes = %d", m.TotalNodes())
	}
	h0 := m.Hostname(0)
	if !strings.HasPrefix(h0, "c000-000.") {
		t.Errorf("hostname 0 = %q", h0)
	}
	if m.Hostname(41) != "c001-001.stampede.tacc.utexas.edu" {
		t.Errorf("hostname 41 = %q", m.Hostname(41))
	}
	// All hostnames unique.
	seen := map[string]bool{}
	for i := 0; i < m.TotalNodes(); i++ {
		h := m.Hostname(i)
		if seen[h] {
			t.Fatalf("duplicate hostname %q", h)
		}
		seen[h] = true
	}
}

func TestGeneratorPopulationFractions(t *testing.T) {
	g := NewGenerator(Stampede(), DefaultConfig(1))
	n := 20000
	counts := map[Population]int{}
	for i := 0; i < n; i++ {
		counts[g.Next().Population]++
	}
	naFrac := float64(counts[PopNA]) / float64(n)
	uncatFrac := float64(counts[PopUncategorized]) / float64(n)
	if math.Abs(naFrac-0.282) > 0.02 {
		t.Errorf("NA fraction = %v, want ~0.282", naFrac)
	}
	if math.Abs(uncatFrac-0.142) > 0.02 {
		t.Errorf("Uncategorized fraction = %v, want ~0.142", uncatFrac)
	}
}

func TestGeneratorNativeMix(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.UncategorizedFrac = 0
	cfg.NAFrac = 0
	cfg.Community = apps.Table2Apps()
	g := NewGenerator(Stampede(), cfg)
	n := 30000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[g.Next().App.Name]++
	}
	// VASP should dominate at roughly its mix share (~33% of Table 2 weight).
	var totalW float64
	for _, a := range apps.Table2Apps() {
		totalW += a.MixWeight
	}
	vasp, _ := apps.ByName("VASP")
	want := vasp.MixWeight / totalW
	got := float64(counts["VASP"]) / float64(n)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("VASP share = %v, want ~%v", got, want)
	}
	if counts["NAMD"] <= counts["GADGET"] {
		t.Error("NAMD should be far more common than GADGET")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(Stampede(), DefaultConfig(7))
	g2 := NewGenerator(Stampede(), DefaultConfig(7))
	for i := 0; i < 200; i++ {
		a, b := g1.Next(), g2.Next()
		if a.ID != b.ID || a.App.Name != b.App.Name || a.Start != b.Start ||
			a.ExitCode != b.ExitCode || len(a.Hosts) != len(b.Hosts) {
			t.Fatalf("generator not deterministic at job %d", i)
		}
	}
}

func TestJobInvariants(t *testing.T) {
	g := NewGenerator(Stampede(), DefaultConfig(3))
	for i := 0; i < 2000; i++ {
		j := g.Next()
		if len(j.Hosts) != j.Draw.Nodes {
			t.Fatalf("hosts %d != nodes %d", len(j.Hosts), j.Draw.Nodes)
		}
		if j.Submit >= j.Start {
			t.Fatal("submit must precede start")
		}
		if int64(j.Draw.WallSeconds) <= 0 {
			t.Fatal("end must follow start")
		}
		seen := map[string]bool{}
		for _, h := range j.Hosts {
			if seen[h] {
				t.Fatalf("job %s assigned duplicate host %s", j.ID, h)
			}
			seen[h] = true
		}
		if j.Population == PopNA && j.App.ExecPath != "" {
			t.Error("NA job should have no exec path")
		}
		if j.Population == PopCommunity && j.App.ExecPath == "" {
			t.Error("community job missing exec path")
		}
		if j.AppFailed && j.ExitCode == 0 {
			t.Error("failed app must have non-zero exit")
		}
	}
}

func TestExitCodesMostlyScriptNoise(t *testing.T) {
	g := NewGenerator(Stampede(), DefaultConfig(4))
	n := 20000
	nonzero, appFailed := 0, 0
	for i := 0; i < n; i++ {
		j := g.Next()
		if j.ExitCode != 0 {
			nonzero++
			if j.AppFailed {
				appFailed++
			}
		}
	}
	frac := float64(nonzero) / float64(n)
	if frac < 0.1 || frac > 0.35 {
		t.Errorf("non-zero exit fraction = %v", frac)
	}
	// The paper's negative result requires most failures to be
	// performance-independent script noise.
	if float64(appFailed)/float64(nonzero) > 0.3 {
		t.Errorf("too many exits are app failures: %d/%d", appFailed, nonzero)
	}
}

func TestPopulationString(t *testing.T) {
	if PopCommunity.String() != "community" || PopNA.String() != "na" ||
		PopUncategorized.String() != "uncategorized" || Population(99).String() != "invalid" {
		t.Error("population strings wrong")
	}
}

func TestUniqueJobIDs(t *testing.T) {
	g := NewGenerator(Stampede(), DefaultConfig(5))
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		id := g.Next().ID
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g := NewGenerator(Stampede(), DefaultConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}
