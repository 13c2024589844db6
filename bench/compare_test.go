package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestCompareMetricVerdicts(t *testing.T) {
	lower := decl{name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.10}
	higher := decl{name: "items_per_s", unit: "1/s", better: "higher", bound: 0.07}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	for _, tc := range []struct {
		name    string
		d       decl
		a, b    []float64
		verdict string
	}{
		{"latency 5% worse is within 10%", lower, steady(100), steady(105), within},
		{"latency 15% worse is outside", lower, steady(100), steady(115), outside},
		{"latency 30% better is within", lower, steady(100), steady(70), within},
		{"throughput 10% lower is outside 7%", higher, steady(1000), steady(900), outside},
		{"throughput 10% higher is within", higher, steady(1000), steady(1100), within},
		{"noisy sets cannot tell", lower, []float64{80, 100, 120, 90, 115}, steady(130), unresolved},
		{"single runs have no spread", lower, []float64{100}, []float64{104}, within},
	} {
		if got := compareMetric(tc.d, tc.a, tc.b); got.verdict != tc.verdict {
			t.Errorf("%s: verdict %s (worse %.3f, spread %.3f), want %s", tc.name, got.verdict, got.worse, got.spread, tc.verdict)
		}
	}
}

func TestCompareSetsExitCode(t *testing.T) {
	set := func(p50, rate float64) *resultFile {
		rf := &resultFile{}
		for i := 0; i < 4; i++ {
			rf.Runs = append(rf.Runs, result{Workload: "single-rf", Metrics: map[string]value{
				"lat_p50_ms": {Value: p50}, "items_per_s": {Value: rate}}})
		}
		// Traced runs carry no end-to-end numbers and must be ignored.
		rf.Runs = append(rf.Runs, result{Workload: "single-rf", Trace: true, Metrics: map[string]value{"lat_p50_ms": {Value: 9e9}}})
		return rf
	}
	var out bytes.Buffer
	if code := printComparison(&out, set(0.08, 20000), set(0.081, 19900)); code != 0 {
		t.Errorf("two agreeing sets exit %d:\n%s", code, out.String())
	}
	if rows := compareSets(set(1, 1), set(1, 1)); len(rows) != 2 {
		t.Errorf("want one row per workload x measured metric, got %d", len(rows))
	}
	out.Reset()
	if code := printComparison(&out, set(0.08, 20000), set(0.08, 12000)); code != 1 || !strings.Contains(out.String(), outside) {
		t.Errorf("a 40%% throughput loss exits %d:\n%s", code, out.String())
	}
	if code := printComparison(&out, &resultFile{}, &resultFile{}); code != 1 {
		t.Error("comparing nothing must not pass")
	}
}
