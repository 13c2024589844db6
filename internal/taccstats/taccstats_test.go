package taccstats

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/rng"
)

func testDraw(t *testing.T, name string, seed uint64) *apps.JobDraw {
	t.Helper()
	a, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("app %s missing", name)
	}
	return a.Sig.Draw(rng.New(seed))
}

func TestSampleTimes(t *testing.T) {
	// start 1000, end 2500, period 600 -> ticks at 1200, 1800, 2400
	got := sampleTimes(1000, 2500, 600)
	want := []int64{1000, 1200, 1800, 2400, 2500}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sampleTimes = %v, want %v", got, want)
	}
}

func TestSampleTimesShortJob(t *testing.T) {
	// Job shorter than one period and not crossing a tick: begin+end only.
	got := sampleTimes(100, 300, 600)
	want := []int64{100, 300}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sampleTimes = %v, want %v", got, want)
	}
}

func TestSampleTimesTickAtEnd(t *testing.T) {
	// End exactly on a tick must not duplicate the final sample.
	got := sampleTimes(0, 1200, 600)
	want := []int64{0, 600, 1200}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sampleTimes = %v, want %v", got, want)
	}
}

func TestCollectShape(t *testing.T) {
	d := testDraw(t, "WRF", 1)
	hosts := make([]string, d.Nodes)
	for i := range hosts {
		hosts[i] = Hostname(i/24, i%24)
	}
	a := Collect(DefaultConfig(), JobInfo{ID: "123", Start: 1_400_000_000, Hosts: hosts}, d, rng.New(2))
	if len(a.Nodes) != d.Nodes {
		t.Fatalf("archive has %d nodes, want %d", len(a.Nodes), d.Nodes)
	}
	for _, n := range a.Nodes {
		if len(n.Samples) < 2 {
			t.Fatalf("node %s has %d samples", n.Host, len(n.Samples))
		}
		if n.Samples[0].Marker != MarkerBegin {
			t.Error("first sample not marked begin")
		}
		if n.Samples[len(n.Samples)-1].Marker != MarkerEnd {
			t.Error("last sample not marked end")
		}
		for i := 1; i < len(n.Samples); i++ {
			if n.Samples[i].Time <= n.Samples[i-1].Time {
				t.Fatal("samples not strictly increasing in time")
			}
		}
		for _, s := range n.Samples {
			if len(s.Records) != len(DefaultSchemas()) {
				t.Fatalf("sample has %d records, want %d", len(s.Records), len(DefaultSchemas()))
			}
		}
	}
}

func TestCollectCountersMonotonicExceptPMC(t *testing.T) {
	d := testDraw(t, "VASP", 3)
	a := Collect(DefaultConfig(), JobInfo{ID: "1", Start: 1_400_000_000, Hosts: []string{"c0"}}, d, rng.New(4))
	n := a.Nodes[0]
	set := NewSchemaSet(DefaultSchemas())
	for i := 1; i < len(n.Samples); i++ {
		for _, rec := range n.Samples[i].Records {
			prev := n.Samples[i-1].Find(rec.Device)
			sch := set[rec.Device]
			for k, key := range sch.Keys {
				if !key.Event || key.PMC {
					continue
				}
				if rec.Values[k] < prev.Values[k] {
					t.Fatalf("counter %s.%s decreased: %d -> %d", rec.Device, key.Name, prev.Values[k], rec.Values[k])
				}
			}
		}
	}
}

func TestCounterDelta(t *testing.T) {
	if CounterDelta(100, 250, false) != 150 {
		t.Error("plain delta")
	}
	// 48-bit rollover: prev near max, cur wrapped.
	prev := pmcMask - 10
	cur := uint64(20)
	if CounterDelta(prev, cur, true) != 31 {
		t.Errorf("rollover delta = %d, want 31", CounterDelta(prev, cur, true))
	}
	if CounterDelta(5, 5, true) != 0 {
		t.Error("identical values should delta to 0")
	}
}

func TestCounterDeltaProperty(t *testing.T) {
	// Property: for any base and any non-negative advance < 2^48,
	// CounterDelta recovers the advance across the masking.
	f := func(base uint64, adv uint32) bool {
		prev := base & pmcMask
		cur := (base + uint64(adv)) & pmcMask
		return CounterDelta(prev, cur, true) == uint64(adv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPMCRolloverOccursOnLongJobs(t *testing.T) {
	// A 16-core 2.7GHz node accumulates ~4.3e10 cycles/s; 2^48 wraps in
	// ~1.8 hours. A 12-hour HPL-like job must observe at least one wrap.
	a, _ := apps.ByName("HPL")
	sig := a.Sig
	sig.WallLogMu = math.Log(12 * 3600)
	sig.WallLogSigma = 0.01
	d := sig.Draw(rng.New(5))
	arch := Collect(DefaultConfig(), JobInfo{ID: "9", Start: 1_400_000_000, Hosts: []string{"c0"}}, d, rng.New(6))
	n := arch.Nodes[0]
	wraps := 0
	for i := 1; i < len(n.Samples); i++ {
		cur := n.Samples[i].Find(DevPMC).Values[0]
		prev := n.Samples[i-1].Find(DevPMC).Values[0]
		if cur < prev {
			wraps++
		}
	}
	if wraps == 0 {
		t.Error("expected at least one PMC rollover on a 12h compute-bound job")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := testDraw(t, "NAMD", 7)
	hosts := []string{"c001-001", "c001-002"}
	if d.Nodes < 2 {
		hosts = hosts[:1]
	}
	a := Collect(DefaultConfig(), JobInfo{ID: "42", Start: 1_400_000_123, Hosts: hosts}, d, rng.New(8))
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.JobID != a.JobID || len(got.Nodes) != len(a.Nodes) {
		t.Fatalf("round trip mismatch: %v nodes", len(got.Nodes))
	}
	for i := range a.Nodes {
		if got.Nodes[i].Host != a.Nodes[i].Host {
			t.Fatal("host mismatch")
		}
		if len(got.Nodes[i].Samples) != len(a.Nodes[i].Samples) {
			t.Fatal("sample count mismatch")
		}
		for j := range a.Nodes[i].Samples {
			ws, gs := a.Nodes[i].Samples[j], got.Nodes[i].Samples[j]
			if ws.Time != gs.Time || ws.Marker != gs.Marker {
				t.Fatal("sample header mismatch")
			}
			for _, rec := range ws.Records {
				grec := gs.Find(rec.Device)
				if grec == nil || !reflect.DeepEqual(grec.Values, rec.Values) {
					t.Fatalf("record %s mismatch", rec.Device)
				}
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"%jobid 1\n1234 begin\ncpu 1 2 3\n",       // sample before %host
		"%jobid 1\n%host c0\ncpu 1 2 3\n",         // record before sample
		"%jobid 1\n%host c0\n12x34\n",             // bad timestamp handled as record before sample
		"%jobid 1\n%host c0\n1234\ncpu 1 2 bad\n", // bad value
	}
	for i, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestCatastropheCollapsesCPU(t *testing.T) {
	a, _ := apps.ByName("NAMD")
	sig := a.Sig
	sig.CatastropheProb = 1
	sig.WallLogMu = math.Log(6 * 3600)
	sig.WallLogSigma = 0.01
	d := sig.Draw(rng.New(9))
	if !d.Catastrophe {
		t.Fatal("draw should be catastrophic")
	}
	arch := Collect(DefaultConfig(), JobInfo{ID: "7", Start: 1_400_000_000, Hosts: []string{"c0"}}, d, rng.New(10))
	n := arch.Nodes[0]
	// Per-interval CPU user rate: first interval vs last interval.
	rate := func(i int) float64 {
		cur := n.Samples[i].Find(DevCPU)
		prev := n.Samples[i-1].Find(DevCPU)
		dt := float64(n.Samples[i].Time - n.Samples[i-1].Time)
		return float64(cur.Values[0]-prev.Values[0]) / dt
	}
	first := rate(1)
	last := rate(len(n.Samples) - 1)
	if last > first*0.2 {
		t.Errorf("catastrophe: last-interval CPU rate %v not collapsed vs first %v", last, first)
	}
}

func TestCollectDeterminism(t *testing.T) {
	d1 := testDraw(t, "LAMMPS", 11)
	d2 := testDraw(t, "LAMMPS", 11)
	job := JobInfo{ID: "5", Start: 1_400_000_000, Hosts: []string{"c0", "c1"}}
	a1 := Collect(DefaultConfig(), job, d1, rng.New(12))
	a2 := Collect(DefaultConfig(), job, d2, rng.New(12))
	var b1, b2 bytes.Buffer
	a1.Encode(&b1)
	a2.Encode(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("Collect is not deterministic")
	}
}

func TestSchemaSet(t *testing.T) {
	set := NewSchemaSet(DefaultSchemas())
	cpu, ok := set[DevCPU]
	if !ok || cpu.Keys[1].Name != "system" {
		t.Fatal("schema lookup failed")
	}
	pmc := set[DevPMC]
	for _, k := range pmc.Keys {
		if !k.PMC || !k.Event {
			t.Errorf("pmc key %s should be a PMC event counter", k.Name)
		}
	}
}

func BenchmarkCollect(b *testing.B) {
	a, _ := apps.ByName("VASP")
	d := a.Sig.Draw(rng.New(1))
	hosts := make([]string, d.Nodes)
	for i := range hosts {
		hosts[i] = Hostname(0, i)
	}
	job := JobInfo{ID: "1", Start: 1_400_000_000, Hosts: hosts}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Collect(DefaultConfig(), job, d, rng.New(uint64(i)))
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	a, _ := apps.ByName("WRF")
	d := a.Sig.Draw(rng.New(1))
	hosts := make([]string, d.Nodes)
	for i := range hosts {
		hosts[i] = Hostname(0, i)
	}
	arch := Collect(DefaultConfig(), JobInfo{ID: "1", Start: 1_400_000_000, Hosts: hosts}, d, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		arch.Encode(&buf)
		if _, err := Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
