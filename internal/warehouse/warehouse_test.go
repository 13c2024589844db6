package warehouse

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/summarize"
)

func rec(id, user, app, cat string, nodes int, start, wall int64, wait int64) *Record {
	return &Record{
		JobID: id, User: user, AppLabel: app, Category: cat,
		Nodes: nodes, Cores: nodes * 16,
		Submit: start - wait, Start: start, WallSeconds: float64(wall),
	}
}

// lookup finds a job in a record set by id.
func lookup(rs Records, id string) (*Record, bool) {
	if i := slices.IndexFunc(rs, func(r *Record) bool { return r.JobID == id }); i >= 0 {
		return rs[i], true
	}
	return nil, false
}

func TestIngestAndLookup(t *testing.T) {
	s := NewStore()
	if err := s.Ingest(rec("1", "u1", "VASP", "QC,ES", 2, 1000, 3600, 60)); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(&Record{}); err == nil {
		t.Error("empty job id should error")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	r, ok := lookup(s.Records(), "1")
	if !ok || r.AppLabel != "VASP" {
		t.Fatal("lookup failed")
	}
	// Replacement.
	if err := s.Ingest(rec("1", "u1", "NAMD", "MD", 2, 1000, 3600, 60)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("replacement grew store to %d", s.Len())
	}
	r, _ = lookup(s.Records(), "1")
	if r.AppLabel != "NAMD" {
		t.Error("replacement did not take effect")
	}
}

func TestRecordDerivedMetrics(t *testing.T) {
	r := rec("1", "u", "VASP", "QC,ES", 4, 10000, 7200, 600)
	if r.WaitSeconds() != 600 {
		t.Errorf("wait = %v", r.WaitSeconds())
	}
}

func TestGroupByApplication(t *testing.T) {
	s := NewStore()
	s.Ingest(rec("1", "u1", "VASP", "QC,ES", 2, 1000, 3600, 100))
	s.Ingest(rec("2", "u2", "VASP", "QC,ES", 4, 2000, 7200, 200))
	s.Ingest(rec("3", "u1", "NAMD", "MD", 8, 3000, 1800, 300))
	gs := s.GroupBy(ByApplication)
	if len(gs) != 2 {
		t.Fatalf("groups = %d", len(gs))
	}
	if gs[0].Key != "VASP" || gs[0].Jobs != 2 {
		t.Errorf("top group = %+v", gs[0])
	}
	if math.Abs(gs[0].MixPercent-66.666) > 0.1 {
		t.Errorf("mix = %v", gs[0].MixPercent)
	}
	wantCPU := (2.0*16*1 + 4.0*16*2)
	if math.Abs(gs[0].CPUHours-wantCPU) > 1e-9 {
		t.Errorf("cpu hours = %v, want %v", gs[0].CPUHours, wantCPU)
	}
	if math.Abs(gs[0].AvgNodes-3) > 1e-9 {
		t.Errorf("avg nodes = %v", gs[0].AvgNodes)
	}
	wantWait := (100.0 + 200.0) / 2 / 3600
	if math.Abs(gs[0].AvgWaitHrs-wantWait) > 1e-9 {
		t.Errorf("avg wait = %v", gs[0].AvgWaitHrs)
	}
	if gs[0].MinWaitHours() > gs[0].MaxWaitHours() {
		t.Error("wait extremes inverted")
	}
}

func TestGroupByJobSizeBuckets(t *testing.T) {
	s := NewStore()
	for i, nodes := range []int{1, 3, 10, 40, 100, 500} {
		s.Ingest(rec(string(rune('a'+i)), "u", "A", "C", nodes, 1000, 60, 1))
	}
	gs := s.GroupBy(ByJobSize)
	keys := map[string]bool{}
	for _, g := range gs {
		keys[g.Key] = true
	}
	for _, want := range []string{"1", "2-4", "5-16", "17-64", "65-256", "257+"} {
		if !keys[want] {
			t.Errorf("missing bucket %s", want)
		}
	}
}

func TestGroupByMonth(t *testing.T) {
	s := NewStore()
	s.Ingest(rec("1", "u", "A", "C", 1, 1388534400, 60, 1)) // 2014-01
	s.Ingest(rec("2", "u", "A", "C", 1, 1396310400, 60, 1)) // 2014-04
	gs := s.GroupBy(ByMonth)
	if len(gs) != 2 {
		t.Fatalf("month groups = %d", len(gs))
	}
	keys := map[string]bool{gs[0].Key: true, gs[1].Key: true}
	if !keys["2014-01"] || !keys["2014-04"] {
		t.Errorf("month keys wrong: %v", keys)
	}
}

// TestMonthKeyMatchesFormat holds monthKey byte-equal to the formatter it
// replaces: at seeded instants over the door's whole ±2^40 s range, and
// at the edges — the epoch and the second before it, both bounds, the
// years -1, 0, 9999 and 10000, and both sides of every month boundary
// of 2014.
func TestMonthKeyMatchesFormat(t *testing.T) {
	const bound = int64(maxUnixSeconds)
	cases := []int64{0, -1, bound, -bound}
	for _, y := range []int{-1, 0, 9999, 10000} {
		first, last := time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC).Unix()-1
		cases = append(cases, first, first-1, last, last+1)
	}
	for m := time.January; m <= time.December; m++ {
		b := time.Date(2014, m, 1, 0, 0, 0, 0, time.UTC).Unix()
		cases = append(cases, b-1, b)
	}
	r := rng.New(97)
	for i := 0; i < 200_000; i++ {
		cases = append(cases, int64(r.Uint64()%uint64(2*bound+1))-bound)
	}
	for _, s := range cases {
		if got, want := monthKey(s), time.Unix(s, 0).UTC().Format("2006-01"); got != want {
			t.Fatalf("monthKey(%d) = %q, Format gives %q", s, got, want)
		}
	}
}

func TestGroupByPopulationAndFiltered(t *testing.T) {
	s := NewStore()
	a := rec("1", "u", "VASP", "QC,ES", 1, 1000, 60, 1)
	a.Pop = cluster.PopCommunity
	b := rec("2", "u", "NA", "Unknown", 1, 1000, 60, 1)
	b.Pop = cluster.PopNA
	s.Ingest(a)
	s.Ingest(b)
	gs := s.GroupBy(ByPopulation)
	if len(gs) != 2 {
		t.Fatalf("population groups = %d", len(gs))
	}
	f := s.Records().Filter(func(r *Record) bool { return r.Pop == cluster.PopCommunity }).GroupBy(ByApplication)
	if len(f) != 1 || f[0].Key != "VASP" || f[0].MixPercent != 100 {
		t.Errorf("filtered groups = %+v", f[0])
	}
}

func TestAvgCPUUserFromSummaries(t *testing.T) {
	s := NewStore()
	r1 := rec("1", "u", "A", "C", 1, 1000, 60, 1)
	r1.Summary = &summarize.Summary{}
	r1.Summary.Means[0] = 0.9
	r2 := rec("2", "u", "A", "C", 1, 1000, 60, 1)
	r2.Summary = &summarize.Summary{}
	r2.Summary.Means[0] = 0.5
	r3 := rec("3", "u", "A", "C", 1, 1000, 60, 1) // no summary
	s.Ingest(r1)
	s.Ingest(r2)
	s.Ingest(r3)
	gs := s.GroupBy(ByApplication)
	if math.Abs(gs[0].AvgCPUUser-0.7) > 1e-9 {
		t.Errorf("avg cpu user = %v", gs[0].AvgCPUUser)
	}
}

func TestTotals(t *testing.T) {
	s := NewStore()
	if tot := s.Totals(); tot.Jobs != 0 {
		t.Error("empty totals should be zero")
	}
	s.Ingest(rec("1", "u", "A", "C", 2, 1000, 3600, 100))
	s.Ingest(rec("2", "u", "B", "C", 4, 1000, 3600, 100))
	tot := s.Totals()
	if tot.Jobs != 2 || math.Abs(tot.CPUHours-(2*16+4*16)) > 1e-9 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestUtilizationSingleMonth(t *testing.T) {
	s := NewStore()
	// 2014-01-10 00:00 UTC, 2-node job running 10 hours.
	s.Ingest(rec("1", "u", "A", "C", 2, 1389312000, 36000, 3600))
	pts := s.Records().Utilization(10)
	if len(pts) != 1 || pts[0].Month != "2014-01" {
		t.Fatalf("points = %+v", pts)
	}
	if math.Abs(pts[0].NodeHours-20) > 1e-9 {
		t.Errorf("node hours = %v, want 20", pts[0].NodeHours)
	}
	wantUtil := 20.0 / (10 * 31 * 24)
	if math.Abs(pts[0].Utilization-wantUtil) > 1e-12 {
		t.Errorf("utilization = %v, want %v", pts[0].Utilization, wantUtil)
	}
	if math.Abs(pts[0].AvgWaitHours-1) > 1e-9 {
		t.Errorf("avg wait = %v, want 1h", pts[0].AvgWaitHours)
	}
}

func TestUtilizationSpansMonths(t *testing.T) {
	s := NewStore()
	// Job starting 2014-01-31 12:00 UTC running 24h: 12h in Jan, 12h in Feb.
	s.Ingest(rec("1", "u", "A", "C", 1, 1391169600, 86400, 60))
	pts := s.Records().Utilization(10)
	if len(pts) != 2 {
		t.Fatalf("points = %+v", pts)
	}
	if math.Abs(pts[0].NodeHours-12) > 1e-9 || math.Abs(pts[1].NodeHours-12) > 1e-9 {
		t.Errorf("split = %v / %v, want 12 / 12", pts[0].NodeHours, pts[1].NodeHours)
	}
	// Wait is attributed only to the start month.
	if pts[0].AvgWaitHours == 0 || pts[1].AvgWaitHours != 0 {
		t.Errorf("wait attribution wrong: %v / %v", pts[0].AvgWaitHours, pts[1].AvgWaitHours)
	}
	if pts[0].Jobs != 1 || pts[1].Jobs != 1 {
		t.Errorf("job counts = %d / %d", pts[0].Jobs, pts[1].Jobs)
	}
}

// TestUtilizationFiveDigitYears: the door admits starts out to about
// year ±34 800. A month outside years 0000-9999 is still sized as its
// own month (February is 696 hours in the leap year 10680 and 672 in
// -6741), and the series comes out in time order, not label order.
func TestUtilizationFiveDigitYears(t *testing.T) {
	s := NewStore()
	for i, year := range []int{10680, 2014, -6741} {
		start := time.Date(year, 2, 10, 0, 0, 0, 0, time.UTC).Unix()
		if err := s.Ingest(rec(fmt.Sprint(i), "u", "A", "C", 1, start, 3600, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, p := range s.Records().Utilization(1) {
		got = append(got, fmt.Sprintf("%s %v", p.Month, p.Utilization))
	}
	want := []string{
		fmt.Sprint("-6741-02 ", 1.0/672), fmt.Sprint("2014-02 ", 1.0/672), fmt.Sprint("10680-02 ", 1.0/696),
	}
	if !slices.Equal(got, want) {
		t.Fatalf("utilization %q, want %q", got, want)
	}
}

func TestUtilizationEmptyAndBadInput(t *testing.T) {
	s := NewStore()
	if pts := s.Records().Utilization(10); pts != nil {
		t.Error("empty store should yield nil")
	}
	s.Ingest(rec("1", "u", "A", "C", 1, 1389312000, 60, 1))
	if pts := s.Records().Utilization(0); pts != nil {
		t.Error("zero machine nodes should yield nil")
	}
}

func TestDrillDown(t *testing.T) {
	s := NewStore()
	s.Ingest(rec("1", "u1", "VASP", "QC,ES", 1, 1000, 60, 1))
	s.Ingest(rec("2", "u1", "NAMD", "MD", 1, 1000, 60, 1))
	s.Ingest(rec("3", "u2", "VASP", "QC,ES", 1, 1000, 60, 1))
	s.Ingest(rec("4", "u1", "VASP", "QC,ES", 1, 1000, 60, 1))
	groups := s.Records().DrillDown(ByUser, ByApplication)
	if len(groups) != 2 || groups[0].Key != "u1" || groups[0].Jobs != 3 {
		t.Fatalf("outer groups = %+v", groups[0])
	}
	inner := groups[0].Inner
	if inner[0].Key != "VASP" || inner[0].Jobs != 2 {
		t.Errorf("u1 inner = %+v", inner[0])
	}
	// Inner mix relative to the outer group.
	if math.Abs(inner[0].MixPercent-66.666) > 0.1 {
		t.Errorf("inner mix = %v", inner[0].MixPercent)
	}
}

// cpuUser gives a record a summary with the given CPU-user mean.
func cpuUser(mean float64) func(*Record) {
	return func(r *Record) {
		r.Summary = &summarize.Summary{}
		r.Summary.Means[0] = mean
	}
}

// TestIngestRecordBounds holds both warehouses to one door: each bound
// just inside is warehoused, just outside is refused, and a refused
// record leaves the warehouse as it was.
func TestIngestRecordBounds(t *testing.T) {
	const year = 366 * 24 * 3600
	cases := []struct {
		name string
		edit func(*Record)
		ok   bool
	}{
		{"plain", func(*Record) {}, true},
		{"no job id", func(r *Record) { r.JobID = "" }, false},
		{"wall 0", func(r *Record) { r.WallSeconds = 0 }, true},
		{"wall a year", func(r *Record) { r.WallSeconds = year }, true},
		{"wall past a year", func(r *Record) { r.WallSeconds = math.Nextafter(year, math.Inf(1)) }, false},
		{"wall 1e13", func(r *Record) { r.WallSeconds = 1e13 }, false},
		{"wall negative", func(r *Record) { r.WallSeconds = math.Copysign(math.SmallestNonzeroFloat64, -1) }, false},
		{"wall NaN", func(r *Record) { r.WallSeconds = math.NaN() }, false},
		{"wall +Inf", func(r *Record) { r.WallSeconds = math.Inf(1) }, false},
		{"start at +bound", func(r *Record) { r.Start = 1 << 40 }, true},
		{"start past +bound", func(r *Record) { r.Start = 1<<40 + 1 }, false},
		{"start at -bound", func(r *Record) { r.Start = -1 << 40 }, true},
		{"start past -bound", func(r *Record) { r.Start = -1<<40 - 1 }, false},
		{"start 1e18", func(r *Record) { r.Start = 1e18 }, false},
		{"submit at +bound", func(r *Record) { r.Submit = 1 << 40 }, true},
		{"submit past +bound", func(r *Record) { r.Submit = 1<<40 + 1 }, false},
		{"submit at -bound", func(r *Record) { r.Submit = -1 << 40 }, true},
		{"submit past -bound", func(r *Record) { r.Submit = -1<<40 - 1 }, false},
		{"cores at +bound", func(r *Record) { r.Cores = 1 << 24 }, true},
		{"cores past +bound", func(r *Record) { r.Cores = 1<<24 + 1 }, false},
		{"cores at -bound", func(r *Record) { r.Cores = -1 << 24 }, true},
		{"cores past -bound", func(r *Record) { r.Cores = -1<<24 - 1 }, false},
		{"cores 1<<40", func(r *Record) { r.Cores = 1 << 40 }, false},
		{"cpu user 0.5", cpuUser(0.5), true},
		{"cpu user below +2^31", cpuUser(math.Nextafter(1<<31, 0)), true},
		{"cpu user at +2^31", cpuUser(1 << 31), false},
		{"cpu user above -2^31", cpuUser(math.Nextafter(-1<<31, 0)), true},
		{"cpu user at -2^31", cpuUser(-1 << 31), false},
		{"cpu user NaN", cpuUser(math.NaN()), false},
		{"cpu user +Inf", cpuUser(math.Inf(1)), false},
		{"cpu user -Inf", cpuUser(math.Inf(-1)), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stores := map[string]interface {
				Ingest(*Record) error
				Len() int
				Records() Records
			}{"store": NewStore(), "sharded": NewSharded(ShardedConfig{})}
			for kind, s := range stores {
				r := rec("7", "u", "A", "C", 2, 1_400_000_000, 3600, 60)
				c.edit(r)
				err := s.Ingest(r)
				if (err == nil) != c.ok {
					t.Fatalf("%s: Ingest(%+v) error = %v, want ok %v", kind, r, err, c.ok)
				}
				want := 0
				if c.ok {
					want = 1
				}
				if s.Len() != want {
					t.Fatalf("%s holds %d jobs, want %d", kind, s.Len(), want)
				}
				if found := slices.Contains(s.Records(), r); found != c.ok {
					t.Fatalf("%s: job %q found = %v, want %v", kind, r.JobID, found, c.ok)
				}
			}
		})
	}
}

// TestBoundedRecordQueriesAreCheap runs the queries a hostile record used
// to stall or wrap on the worst records the door admits: a job of a year
// on the most cores, at either end of the time bound; 18 of them in one
// hour, whose core-milliseconds pass 2^63; and two jobs of 2^62 nodes
// (nodes have no bound).
func TestBoundedRecordQueriesAreCheap(t *testing.T) {
	const yearMillis = 366 * 24 * 3600 * 1000
	s := NewStore()
	wait := map[int64]int64{}
	for i, start := range []int64{-1 << 40, 0, 1 << 40} {
		r := rec(string(rune('a'+i)), "u", "A", "C", 1, start, 366*24*3600, 0)
		r.Cores, r.Submit = 1<<24, -start
		if err := s.Ingest(r); err != nil {
			t.Fatal(err)
		}
		wait[rollupKey(start)] = 2 * start
	}
	if n := len(s.Records().Utilization(6400)); n > 3*13 {
		t.Fatalf("Utilization returned %d months for three jobs of a year each", n)
	}
	for _, b := range s.Records().Rollup() {
		if b.WallMillis != int128(yearMillis) || b.CoreMillis != int128(yearMillis<<24) || b.WaitSeconds != int128(wait[b.Bucket]) {
			t.Fatalf("rollup bucket wrapped: %+v", b)
		}
	}

	wide := NewStore()
	for i := 0; i < 18; i++ {
		r := rec(fmt.Sprint("wide-", i), "u", "A", "C", 1, 7200, 366*24*3600, 0)
		r.Cores = 1 << 24
		if err := wide.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	buckets := wide.Records().Rollup()
	want := new(big.Int).Mul(big.NewInt(18<<24), big.NewInt(yearMillis)) // past 2^63
	if len(buckets) != 1 || buckets[0].CoreMillis.String() != want.String() {
		t.Fatalf("18 year-long jobs on 2^24 cores roll up to %+v, want %s core ms", buckets, want)
	}
	if cpu, tot := buckets[0].CoreMillis.hours(), wide.Totals(); cpu <= 0 || cpu != tot.CPUHours {
		t.Fatalf("rollup says %v CPU hours, Totals %v", cpu, tot.CPUHours)
	}
	js, err := json.Marshal(buckets[0])
	if err != nil || !strings.Contains(string(js), `"coreMillis":`+want.String()+",") {
		t.Fatalf("bucket encodes as %s (%v), want coreMillis %s", js, err, want)
	}

	big2 := NewStore()
	for _, id := range []string{"n1", "n2"} {
		r := rec(id, "u", "A", "C", 1, 7200, 60, 0)
		r.Nodes = 1 << 62
		if err := big2.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if b := big2.Records().Rollup(); len(b) != 1 || b[0].Nodes.String() != "9223372036854775808" {
		t.Fatalf("two jobs of 2^62 nodes roll up to %+v, want 2^63 nodes", b)
	}
	if g := big2.GroupBy(ByApplication); g[0].AvgNodes != 1<<62 {
		t.Fatalf("two jobs of 2^62 nodes average %v nodes", g[0].AvgNodes)
	}
}
