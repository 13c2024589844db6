package apps

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestMetricNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for m := MetricID(0); m < NumMetrics; m++ {
		n := m.String()
		if n == "" || n == "INVALID_METRIC" {
			t.Fatalf("metric %d has bad name %q", m, n)
		}
		if seen[n] {
			t.Fatalf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
	if MetricID(-1).String() != "INVALID_METRIC" || NumMetrics.String() != "INVALID_METRIC" {
		t.Error("out-of-range metric should stringify as INVALID_METRIC")
	}
}

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) < 25 {
		t.Fatalf("catalogue too small: %d", len(cat))
	}
	t2 := Table2Apps()
	if len(t2) != 20 {
		t.Fatalf("Table2Apps = %d apps, want 20", len(t2))
	}
	// Every broad category must be populated.
	have := map[Category]bool{}
	for _, a := range cat {
		have[a.Category] = true
	}
	for _, c := range Categories {
		if !have[c] {
			t.Errorf("category %q has no applications", c)
		}
	}
	// Names unique; community (non-NA) exec paths unique and non-empty.
	names := map[string]bool{}
	paths := map[string]bool{}
	for _, a := range cat {
		if names[a.Name] {
			t.Errorf("duplicate app name %q", a.Name)
		}
		names[a.Name] = true
		if a.ExecPath == "" {
			t.Errorf("app %q has empty exec path", a.Name)
		}
		if paths[a.ExecPath] {
			t.Errorf("duplicate exec path %q", a.ExecPath)
		}
		paths[a.ExecPath] = true
		if a.MixWeight <= 0 {
			t.Errorf("app %q has non-positive mix weight", a.Name)
		}
	}
}

func TestVASPDominatesMix(t *testing.T) {
	v, ok := ByName("VASP")
	if !ok {
		t.Fatal("VASP missing")
	}
	for _, a := range Catalog() {
		if a.Name != "VASP" && a.MixWeight >= v.MixWeight {
			t.Errorf("%s mix weight %v >= VASP %v", a.Name, a.MixWeight, v.MixWeight)
		}
	}
	if v.Category != CatQCES {
		t.Errorf("VASP category = %q", v.Category)
	}
}

func TestByNameMissing(t *testing.T) {
	if _, ok := ByName("NOSUCHAPP"); ok {
		t.Error("ByName returned a result for a bogus name")
	}
}

func TestDrawInvariants(t *testing.T) {
	r := rng.New(99)
	for _, a := range Catalog() {
		ar := r.Split(uint64(len(a.Name)) + uint64(a.Name[0]))
		for i := 0; i < 200; i++ {
			d := a.Sig.Draw(ar)
			u, s, idle := d.Rates[CPUUser], d.Rates[CPUSystem], d.Rates[CPUIdle]
			if u < 0 || u > 1 || s < 0 || s > 1 || idle < -1e-9 || idle > 1 {
				t.Fatalf("%s: fractions out of range u=%v s=%v i=%v", a.Name, u, s, idle)
			}
			if math.Abs(u+s+idle-1) > 1e-9 {
				t.Fatalf("%s: fractions do not sum to 1", a.Name)
			}
			for m := MetricID(0); m < NumMetrics; m++ {
				if m.IsFraction() {
					continue
				}
				if d.Rates[m] <= 0 || math.IsInf(d.Rates[m], 0) || math.IsNaN(d.Rates[m]) {
					t.Fatalf("%s: metric %v = %v", a.Name, m, d.Rates[m])
				}
			}
			if d.Nodes < 1 {
				t.Fatalf("%s: %d nodes", a.Name, d.Nodes)
			}
			if d.WallSeconds < 90 {
				t.Fatalf("%s: wall %v under the 90s floor", a.Name, d.WallSeconds)
			}
		}
	}
}

func TestNodeRatesInvariants(t *testing.T) {
	r := rng.New(7)
	a, _ := ByName("WRF")
	d := a.Sig.Draw(r)
	for i := 0; i < 100; i++ {
		nr := d.NodeRates(r.Split(uint64(i)))
		sum := nr[CPUUser] + nr[CPUSystem] + nr[CPUIdle]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("node fractions sum %v", sum)
		}
		for m := MetricID(0); m < NumMetrics; m++ {
			if m.IsFraction() {
				continue
			}
			if nr[m] <= 0 {
				t.Fatalf("node metric %v = %v", m, nr[m])
			}
		}
	}
}

func TestPerturbIntervalCatastropheScalesCPU(t *testing.T) {
	r := rng.New(8)
	a, _ := ByName("NAMD")
	d := a.Sig.Draw(r)
	node := d.NodeRates(r)
	normal := d.PerturbInterval(r.Split(1), node, 1.0, 0.5)
	collapsed := d.PerturbInterval(r.Split(1), node, 0.02, 0.5)
	if collapsed[CPUUser] >= normal[CPUUser]*0.1 {
		t.Errorf("collapse did not reduce CPU user: %v vs %v", collapsed[CPUUser], normal[CPUUser])
	}
	if collapsed[Flops] >= normal[Flops]*0.1 {
		t.Errorf("collapse did not reduce flops")
	}
	// Memory footprint should not collapse with CPU.
	if collapsed[MemUsed] < normal[MemUsed]*0.5 {
		t.Errorf("collapse should not gut memory gauge")
	}
}

func TestDrawDeterminism(t *testing.T) {
	a, _ := ByName("VASP")
	d1 := a.Sig.Draw(rng.New(5))
	d2 := a.Sig.Draw(rng.New(5))
	if *d1 != *d2 {
		t.Error("same-seed draws differ")
	}
}

// TestSignatureSeparation verifies the catalogue encodes the paper's
// structure: within-category app pairs are closer in key-metric space than
// cross-category pairs on average, and network metrics carry no class
// signal.
func TestSignatureSeparation(t *testing.T) {
	key := []MetricID{MemUsed, CPI, CPUSystem, CPLD}
	dist := func(a, b App) float64 {
		var d float64
		for _, m := range key {
			diff := a.Sig.Mu[m] - b.Sig.Mu[m]
			d += diff * diff
		}
		return math.Sqrt(d)
	}
	cat := Catalog()
	var within, cross stats.Accumulator
	for i := range cat {
		for j := i + 1; j < len(cat); j++ {
			d := dist(cat[i], cat[j])
			if cat[i].Category == cat[j].Category {
				within.Add(d)
			} else {
				cross.Add(d)
			}
		}
	}
	if within.Mean() >= cross.Mean() {
		t.Errorf("within-category key distance %v >= cross %v", within.Mean(), cross.Mean())
	}
	// Network mus identical across all apps.
	for _, m := range []MetricID{EthTx, IBRx, IBTx} {
		for _, a := range cat[1:] {
			if a.Sig.Mu[m] != cat[0].Sig.Mu[m] {
				t.Errorf("network metric %v differs between apps", m)
			}
		}
	}
}

func TestCustomPoolUncategorized(t *testing.T) {
	r := rng.New(11)
	pool := NewCustomPool(r, DefaultUncategorizedConfig())
	if len(pool.Apps) != 60 {
		t.Fatalf("pool size %d", len(pool.Apps))
	}
	for _, a := range pool.Apps {
		if a.ExecPath == "" {
			t.Error("uncategorized app missing exec path")
		}
		if strings.HasPrefix(a.ExecPath, "/opt/apps/") {
			t.Errorf("custom app has community path %q", a.ExecPath)
		}
		if a.Category != CatUnknown {
			t.Errorf("custom app category %q", a.Category)
		}
	}
}

func TestCustomPoolNA(t *testing.T) {
	r := rng.New(12)
	pool := NewCustomPool(r, DefaultNAConfig())
	for _, a := range pool.Apps {
		if a.ExecPath != "" {
			t.Error("NA app should have no exec path")
		}
	}
}

func TestCustomPoolReproducible(t *testing.T) {
	p1 := NewCustomPool(rng.New(13), DefaultUncategorizedConfig())
	p2 := NewCustomPool(rng.New(13), DefaultUncategorizedConfig())
	for i := range p1.Apps {
		if p1.Apps[i].ExecPath != p2.Apps[i].ExecPath {
			t.Fatal("pool not reproducible")
		}
		if p1.Apps[i].Sig.Mu != p2.Apps[i].Sig.Mu {
			t.Fatal("pool signatures not reproducible")
		}
	}
}

func TestCustomPoolSampleSkew(t *testing.T) {
	r := rng.New(14)
	pool := NewCustomPool(r, PoolConfig{NumApps: 10})
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[pool.Sample(r).Name]++
	}
	if counts["custom-000"] <= counts["custom-009"] {
		t.Error("popularity skew missing: first app should dominate last")
	}
}

func TestMixWeights(t *testing.T) {
	t2 := Table2Apps()
	w := MixWeights(t2)
	if len(w) != len(t2) {
		t.Fatal("length mismatch")
	}
	for i := range w {
		if w[i] != t2[i].MixWeight {
			t.Fatal("weights out of order")
		}
	}
}

func BenchmarkDraw(b *testing.B) {
	a, _ := ByName("VASP")
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Sig.Draw(r)
	}
}

func BenchmarkNodeRates(b *testing.B) {
	a, _ := ByName("VASP")
	r := rng.New(1)
	d := a.Sig.Draw(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.NodeRates(r)
	}
}
