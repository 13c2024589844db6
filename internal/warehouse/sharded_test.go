package warehouse

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/summarize"
	"repro/internal/testkit"
)

// synthSummary fills just the summary fields the warehouse reads.
func synthSummary(r *rng.Rand, nodes int) *summarize.Summary {
	s := &summarize.Summary{Nodes: nodes}
	s.Means[0] = r.Float64()
	return s
}

// synthRecord builds a deterministic pseudo-random record for job id.
func synthRecord(r *rng.Rand, id string) *Record {
	users := []string{"alice", "bob", "carol", "dave", "erin"}
	apps := []string{"NAMD", "WRF", "GROMACS", "Uncategorized", "NA"}
	cats := []string{"Chemistry", "Weather", "Biology", "Unknown"}
	pops := []cluster.Population{cluster.PopCommunity, cluster.PopUncategorized, cluster.PopNA}
	nodes := 1 + r.Intn(64)
	start := int64(1_400_000_000 + r.Intn(90*24*3600))
	rec := &Record{
		JobID:       id,
		User:        users[r.Intn(len(users))],
		AppLabel:    apps[r.Intn(len(apps))],
		Category:    cats[r.Intn(len(cats))],
		Pop:         pops[r.Intn(len(pops))],
		Nodes:       nodes,
		Cores:       nodes * 16,
		Submit:      start - int64(r.Intn(7200)),
		Start:       start,
		WallSeconds: float64(60+r.Intn(86_400)) + r.Float64(),
	}
	if r.Intn(4) != 0 {
		rec.Summary = synthSummary(r, nodes)
	}
	return rec
}

// aggLine renders one aggregate exactly (testkit.Float captures full
// float precision, so equal digests mean bit-equal results).
func aggLine(a *Aggregate) string {
	return strings.Join([]string{
		a.Key,
		fmt.Sprint(a.Jobs),
		testkit.Float(a.CPUHours),
		testkit.Float(a.WallHours),
		testkit.Float(a.AvgWaitHrs),
		testkit.Float(a.AvgNodes),
		testkit.Float(a.MixPercent),
		testkit.Float(a.AvgCPUUser),
		testkit.Float(a.MinWaitHours()),
		testkit.Float(a.MaxWaitHours()),
	}, "|")
}

// queries is the surface Records and WarehouseSnapshot both answer.
type queries interface {
	GroupBy(Dimension) []*Aggregate
	Totals() Aggregate
	DrillDown(outer, inner Dimension) []*DrillDownGroup
	Utilization(machineNodes int) []UtilizationPoint
	Rollup() []RollupBucket
}

// queryDigests hashes every query the warehouse answers — each
// dimension's GroupBy, Totals, every DrillDown pair, Utilization and
// Rollup — one digest per query, so a mismatch names what diverged.
func queryDigests(q queries) map[string]string {
	out := map[string]string{}
	var b strings.Builder
	flush := func(name string) {
		out[name] = testkit.HashBytes([]byte(b.String()))
		b.Reset()
	}
	aggs := func(as []*Aggregate) {
		for _, a := range as {
			b.WriteString(aggLine(a))
			b.WriteByte('\n')
		}
	}
	for _, dim := range Dimensions {
		aggs(q.GroupBy(dim))
		flush("groupby/" + string(dim))
		for _, inner := range Dimensions {
			for _, g := range q.DrillDown(dim, inner) {
				fmt.Fprintf(&b, "%s|%d\n", g.Key, g.Jobs)
				aggs(g.Inner)
			}
			flush("drilldown/" + string(dim) + "/" + string(inner))
		}
	}
	t := q.Totals()
	aggs([]*Aggregate{&t})
	flush("totals")
	for _, p := range q.Utilization(128) {
		fmt.Fprintf(&b, "%s|%d|%s|%s|%s|%s\n", p.Month, p.Jobs, testkit.Float(p.NodeHours),
			testkit.Float(p.CPUHours), testkit.Float(p.Utilization), testkit.Float(p.AvgWaitHours))
	}
	flush("utilization")
	for _, rb := range q.Rollup() {
		fmt.Fprintf(&b, "%d|%d|%v|%v|%v|%v\n",
			rb.Bucket, rb.Jobs, rb.WallMillis, rb.CoreMillis, rb.WaitSeconds, rb.Nodes)
	}
	flush("rollup")
	return out
}

// sameQueries fails the test on every query whose digests differ.
func sameQueries(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %s digest %s, want %s", what, name, got[name], w)
		}
	}
}

// checkSnapshot asserts the snapshot-consistency invariants: the cut
// holds each job once, its rollup accounts for exactly the jobs, wall
// time and core time its Totals report (both fold the same integer sums,
// so the hours are bit-equal), and every query result is bit-equal to
// the serial reference Store ingesting the snapshot's records in
// snapshot order.
func checkSnapshot(t *testing.T, v *WarehouseSnapshot) {
	t.Helper()
	var jobs int64
	var wallMillis, coreMillis Int128
	for _, b := range v.Rollup() {
		jobs += b.Jobs
		wallMillis = wallMillis.plus(b.WallMillis)
		coreMillis = coreMillis.plus(b.CoreMillis)
	}
	tot := v.Totals()
	if jobs != int64(tot.Jobs) || wallMillis.hours() != tot.WallHours || coreMillis.hours() != tot.CPUHours {
		t.Fatalf("rollup sums %d jobs, %v wall ms, %v core ms; totals %d jobs, %v wall h, %v cpu h",
			jobs, wallMillis, coreMillis, tot.Jobs, tot.WallHours, tot.CPUHours)
	}
	seen := map[string]bool{}
	ref := NewStore()
	for _, r := range v.Records {
		if seen[r.JobID] {
			t.Fatalf("snapshot holds job %q twice", r.JobID)
		}
		seen[r.JobID] = true
		if err := ref.Ingest(r); err != nil {
			t.Fatalf("reference ingest: %v", err)
		}
	}
	sameQueries(t, "snapshot vs serial reference", queryDigests(v), queryDigests(ref.Records()))
}

func TestShardedSerialMatchesReference(t *testing.T) {
	r := rng.New(41)
	s := NewSharded(ShardedConfig{Shards: 4})
	for i := 0; i < 500; i++ {
		// ~20% replacements: draw ids from a pool smaller than the count.
		id := fmt.Sprintf("job-%03d", r.Intn(400))
		if err := s.Ingest(synthRecord(r, id)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() == 0 {
		t.Fatal("nothing ingested")
	}
	checkSnapshot(t, s.Snapshot())
}

func TestShardedRejectsEmptyJobID(t *testing.T) {
	s := NewSharded(ShardedConfig{})
	if err := s.Ingest(&Record{}); err == nil {
		t.Fatal("want error for record without job id")
	}
}

// TestShardedSnapshotTorture interleaves writers (with replacements)
// and snapshot readers; every observed snapshot must be a consistent
// cut. Run under -race via `make race`.
func TestShardedSnapshotTorture(t *testing.T) {
	const (
		writers    = 4
		perWriter  = 300
		idPool     = 250 // shared across writers: cross-writer replacement
		readEveryN = 25
	)
	s := NewSharded(ShardedConfig{Shards: 8})
	var wg sync.WaitGroup
	snaps := make(chan *WarehouseSnapshot, writers*perWriter/readEveryN+writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(1000).Split(uint64(w))
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("job-%03d", r.Intn(idPool))
				if err := s.Ingest(synthRecord(r, id)); err != nil {
					t.Error(err)
					return
				}
				if i%readEveryN == 0 {
					snaps <- s.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	close(snaps)
	n := 0
	for v := range snaps {
		checkSnapshot(t, v)
		n++
	}
	if n == 0 {
		t.Fatal("no snapshots observed")
	}
	checkSnapshot(t, s.Snapshot())
}

// TestShardedShardCountInvariance ingests the same record set (in
// different interleavings) at shard counts 1, 4, 7 and 8 and demands
// digest-equal snapshots, each also equal to the serial Store:
// partitioning is invisible to every query.
func TestShardedShardCountInvariance(t *testing.T) {
	build := func(shards, writers int) *WarehouseSnapshot {
		s := NewSharded(ShardedConfig{Shards: shards})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Writer w owns ids w mod writers: same final record per id
				// regardless of scheduling, while shards ingest concurrently.
				r := rng.New(7).Split(uint64(w))
				for i := w; i < 600; i += writers {
					rec := synthRecord(r, fmt.Sprintf("job-%04d", i))
					if err := s.Ingest(rec); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return s.Snapshot()
	}
	// Writer w seeds its own rng, so record contents depend only on
	// (writer, position), not on shard count.
	v1 := build(1, 4)
	checkSnapshot(t, v1)
	want := queryDigests(v1)
	for _, shards := range []int{4, 7, 8} {
		v := build(shards, 4)
		if v.Len() != v1.Len() {
			t.Fatalf("record counts differ: %d at 1 shard, %d at %d", v1.Len(), v.Len(), shards)
		}
		sameQueries(t, fmt.Sprintf("%d shards vs 1", shards), queryDigests(v), want)
		checkSnapshot(t, v)
	}
}

// TestRollupReplacementExact replaces a job and checks the rollup
// holds only the replacement: the bucket the old record filled is gone.
func TestRollupReplacementExact(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 2})
	a := &Record{JobID: "j1", Nodes: 2, Cores: 32, Submit: 90, Start: 100, WallSeconds: 1000.25}
	b := &Record{JobID: "j1", Nodes: 4, Cores: 64, Submit: 3600, Start: 7300, WallSeconds: 10.75}
	if err := s.Ingest(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(b); err != nil {
		t.Fatal(err)
	}
	v := s.Snapshot()
	if len(v.Records) != 1 || v.Records[0] != b {
		t.Fatalf("replacement did not swap the record: %+v", v.Records)
	}
	rollup := v.Rollup()
	if len(rollup) != 1 {
		t.Fatalf("stale rollup bucket survived the replacement: %+v", rollup)
	}
	if got := rollup[0]; got.Bucket != 7200 || got.Jobs != 1 || got.WallMillis != int128(10750) {
		t.Fatalf("bad rollup after replacement: %+v", got)
	}
	checkSnapshot(t, v)
}

// sortAll is the cut a from-scratch Snapshot takes: the latest record
// ingested under each job id, sorted by job id.
func sortAll(latest map[string]*Record) Records {
	recs := make(Records, 0, len(latest))
	for _, r := range latest {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].JobID < recs[j].JobID })
	return recs
}

// TestShardedIncrementalSnapshot interleaves the three kinds of ingest
// the merge tells apart — new ids, replacements of ids in the last cut,
// and one id ingested twice between cuts — with Snapshot calls. Each cut
// must be consistent and hold the pointers a from-scratch sort of the
// ingested holds, in the same order; a cut with no ingest before it
// must be the previous cut itself; and every earlier cut must still
// answer every query as it did when it was taken. Len counts each job
// once, new jobs not yet cut and ids ingested twice since the last cut
// included; on odd rounds it is called before Snapshot and takes the
// cut itself.
func TestShardedIncrementalSnapshot(t *testing.T) {
	r := rng.New(53)
	s := NewSharded(ShardedConfig{Shards: 4})
	latest := map[string]*Record{}
	ingest := func(id string) {
		t.Helper()
		rec := synthRecord(r, id)
		if err := s.Ingest(rec); err != nil {
			t.Fatal(err)
		}
		latest[id] = rec
	}
	newID := func() string {
		for {
			// Random ids land between existing ones, not only after them.
			id := fmt.Sprintf("job-%05d", r.Intn(100_000))
			if _, ok := latest[id]; !ok {
				return id
			}
		}
	}
	type cut struct {
		v       *WarehouseSnapshot
		digests map[string]string
	}
	var cuts []cut
	for round := 0; round < 24; round++ {
		var prev *WarehouseSnapshot
		if len(cuts) > 0 {
			prev = cuts[len(cuts)-1].v
		}
		if round%6 != 5 {
			for n := 1 + r.Intn(20); n > 0; n-- {
				ingest(newID())
			}
			for n := r.Intn(8); prev != nil && n > 0; n-- {
				ingest(prev.Records[r.Intn(len(prev.Records))].JobID)
			}
			twice := newID()
			if prev != nil && r.Intn(2) == 0 {
				twice = prev.Records[r.Intn(len(prev.Records))].JobID
			}
			ingest(twice)
			ingest(twice)
		}
		if round%2 == 1 {
			if got := s.Len(); got != len(latest) {
				t.Fatalf("round %d: Len before the cut = %d, want %d jobs", round, got, len(latest))
			}
		}
		v := s.Snapshot()
		checkSnapshot(t, v)
		if got := s.Len(); got != len(v.Records) {
			t.Fatalf("round %d: Len = %d, the cut holds %d", round, got, len(v.Records))
		}
		want := sortAll(latest)
		if len(v.Records) != len(want) {
			t.Fatalf("round %d: cut holds %d records, a full sort %d", round, len(v.Records), len(want))
		}
		for i := range want {
			if v.Records[i] != want[i] {
				t.Fatalf("round %d: cut[%d] is job %s, a full sort's is job %s", round, i, v.Records[i].JobID, want[i].JobID)
			}
		}
		if round%6 == 5 && &v.Records[0] != &prev.Records[0] {
			t.Fatalf("round %d: a cut with no delta copied the previous cut", round)
		}
		// Cuts share slices, so each is full to capacity: an append to one
		// never writes where another holder can see.
		if cap(v.Records) != len(v.Records) {
			t.Fatalf("round %d: cut of %d records has capacity %d", round, len(v.Records), cap(v.Records))
		}
		cuts = append(cuts, cut{v, queryDigests(v)})
	}
	for i, c := range cuts {
		sameQueries(t, fmt.Sprintf("cut %d after later ingests", i), queryDigests(c.v), c.digests)
	}
}

// aggLines renders aggregates one aggLine each.
func aggLines(as []*Aggregate) string {
	var b strings.Builder
	for _, a := range as {
		b.WriteString(aggLine(a) + "\n")
	}
	return b.String()
}

// checkTables asserts that v answers from its tables, and that every
// dimension's GroupBy and the Totals read there are bit-equal to the
// walk of v's records.
func checkTables(t *testing.T, what string, v *WarehouseSnapshot) {
	t.Helper()
	if !v.folded() {
		t.Fatalf("%s: the snapshot does not answer from its tables", what)
	}
	for _, dim := range Dimensions {
		if got, want := aggLines(v.GroupBy(dim)), aggLines(v.Records.GroupBy(dim)); got != want {
			t.Fatalf("%s: GroupBy(%s) from the tables:\n%s\nby the walk:\n%s", what, dim, got, want)
		}
	}
	got, want := v.Totals(), v.Records.Totals()
	if aggLine(&got) != aggLine(&want) {
		t.Fatalf("%s: Totals from the tables %s, by the walk %s", what, aggLine(&got), aggLine(&want))
	}
}

// TestTablesMatchWalk holds the group tables a Sharded folds at each cut
// to the walk: over seeded rounds of new jobs and replacements, every
// cut's GroupBy on each dimension and its Totals, read from the tables,
// are bit-equal to Records.GroupBy and Records.Totals over the same cut.
// Each round also moves a job to another application and user, replaces
// the job holding the warehouse's longest or shortest wait, and empties
// a one-job group; the test fails unless each kind of round changed what
// it aimed at.
func TestTablesMatchWalk(t *testing.T) {
	r := rng.New(61)
	s := NewSharded(ShardedConfig{Shards: 3})
	latest := map[string]*Record{}
	ingest := func(rec *Record) {
		t.Helper()
		if err := s.Ingest(rec); err != nil {
			t.Fatal(err)
		}
		latest[rec.JobID] = rec
	}
	has := func(as []*Aggregate, key string) bool {
		return slices.ContainsFunc(as, func(a *Aggregate) bool { return a.Key == key })
	}
	cut := func(round int) *WarehouseSnapshot {
		t.Helper()
		v := s.Snapshot()
		checkTables(t, fmt.Sprint("round ", round), v)
		return v
	}
	var moved, extremes, emptied int
	prev := cut(-1)
	for round := 0; round < 40; round++ {
		for n := r.Intn(40); n > 0; n-- {
			ingest(synthRecord(r, fmt.Sprintf("job-%04d", r.Intn(500))))
		}
		solo := fmt.Sprint("solo-", round)
		ingest(&Record{JobID: solo, User: solo, AppLabel: "NAMD", Nodes: 1, Cores: 16,
			Submit: 1_400_000_000, Start: 1_400_000_000 + int64(r.Intn(7200)), WallSeconds: 60})
		if round%5 == 4 {
			prev = cut(round) // a cut of new jobs alone
		}
		var m Record
		if len(prev.Records) > 0 {
			m = *prev.Records[r.Intn(len(prev.Records))]
			m.AppLabel, m.User = m.AppLabel+"-moved", m.User+"-moved"
			ingest(&m)
			// The job holding the longest (even rounds) or shortest wait
			// of the whole warehouse holds its group's too.
			hold := prev.Records[0]
			for _, x := range prev.Records {
				if w := x.WaitSeconds(); round%2 == 0 && w > hold.WaitSeconds() || round%2 == 1 && w < hold.WaitSeconds() {
					hold = x
				}
			}
			e := *hold
			e.Submit = e.Start - 3600
			ingest(&e)
		}
		if round > 0 {
			last := fmt.Sprint("solo-", round-1)
			if rec, ok := latest[last]; ok && rec.User == last {
				e := *rec
				e.User = "alice"
				ingest(&e)
			}
		}
		before := prev
		prev = cut(round)
		if len(before.Records) == 0 {
			continue
		}
		bt, at := before.Totals(), prev.Totals()
		if bt.MaxWaitHours() != at.MaxWaitHours() || bt.MinWaitHours() != at.MinWaitHours() {
			extremes++
		}
		if has(prev.GroupBy(ByApplication), m.AppLabel) && has(prev.GroupBy(ByUser), m.User) {
			moved++
		}
		if last := fmt.Sprint("solo-", round-1); has(before.GroupBy(ByUser), last) && !has(prev.GroupBy(ByUser), last) {
			emptied++
		}
	}
	if moved == 0 || extremes == 0 || emptied == 0 {
		t.Fatalf("rounds moved a job %d times, changed the wait extremes %d times, emptied a group %d times; want each > 0",
			moved, extremes, emptied)
	}
}

// TestSnapshotReadersBesideFolds reads cuts while later cuts fold new
// groups into the key slices the cuts share: every ingest opens a user
// group, and each reader's GroupBy and Totals must account for exactly
// its cut's jobs. Run under -race via `make race`.
func TestSnapshotReadersBesideFolds(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(71).Split(uint64(w))
			for i := 0; i < 200; i++ {
				rec := synthRecord(r, fmt.Sprintf("job-%d-%03d", w, i))
				rec.User = rec.JobID
				if err := s.Ingest(rec); err != nil {
					t.Error(err)
					return
				}
				v := s.Snapshot()
				jobs := 0
				for _, g := range v.GroupBy(ByUser) {
					jobs += g.Jobs
				}
				if tot := v.Totals(); jobs != v.Len() || tot.Jobs != v.Len() {
					t.Errorf("a cut of %d jobs groups %d by user and totals %d", v.Len(), jobs, tot.Jobs)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkSnapshot(t, s.Snapshot())
}

// TestSnapshotAnswersItsRecords edits a snapshot's Records the ways a
// caller can: a record swapped for an altered copy, a record relabelled
// after that, the original put back, the first record dropped. Every
// query must describe Records as edited, so the edited snapshot answers
// by the walk and the restored one from its tables again; and no edit
// reaches the next cut.
func TestSnapshotAnswersItsRecords(t *testing.T) {
	r := rng.New(83)
	s := NewSharded(ShardedConfig{Shards: 2})
	for i := 0; i < 60; i++ {
		if err := s.Ingest(synthRecord(r, fmt.Sprintf("job-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v := s.Snapshot()
	before := queryDigests(v)
	walked := func(what string) {
		t.Helper()
		ref := NewStore()
		for _, rec := range v.Records {
			if err := ref.Ingest(rec); err != nil {
				t.Fatal(err)
			}
		}
		if v.folded() {
			t.Fatalf("%s: the snapshot still answers from its tables", what)
		}
		sameQueries(t, what, queryDigests(v), queryDigests(ref.Records()))
	}
	orig := v.Records[5]
	edited := *orig
	edited.WallSeconds++
	v.Records[5] = &edited
	walked("one second added")
	edited.AppLabel += "x"
	walked("relabelled")
	if got := v.GroupBy(ByApplication); !slices.ContainsFunc(got, func(a *Aggregate) bool { return a.Key == edited.AppLabel }) {
		t.Fatalf("GroupBy lacks the relabelled record's group %q", edited.AppLabel)
	}
	v.Records[5] = orig
	checkTables(t, "restored", v)
	sameQueries(t, "restored", queryDigests(v), before)
	v.Records = v.Records[1:]
	walked("first record dropped")

	v.Records = s.Snapshot().Records
	v.Records[5] = &edited
	if err := s.Ingest(synthRecord(r, "job-999")); err != nil {
		t.Fatal(err)
	}
	next := s.Snapshot()
	checkTables(t, "the cut after an edit", next)
	if next.Records[5] != orig {
		t.Fatalf("the next cut holds job %s at 5, want the original %s", next.Records[5].JobID, orig.JobID)
	}
}

// TestReplaceKeepsExtremes holds the fold-out rule: a replacement marks a
// table stale only where the job it replaces held its group's minimum
// or maximum wait and the replacing job, in the same group, does not
// take that extreme over. Re-ingesting a job unchanged, or with a wait
// past the extreme it held, re-walks nothing.
func TestReplaceKeepsExtremes(t *testing.T) {
	job := func(id, user string, wait int64) *Record {
		return &Record{JobID: id, User: user, AppLabel: "NAMD", Nodes: 1, Cores: 16,
			Submit: 1_400_000_000 - wait, Start: 1_400_000_000, WallSeconds: 60}
	}
	byUser := slices.Index(tableDims[:], ByUser)
	for _, c := range []struct {
		name     string
		old, new *Record
		stale    bool // the ByUser table
		others   bool // every other table
	}{
		{"unchanged", job("b", "u", 10), job("b", "u", 10), false, false},
		{"lower wait at the minimum", job("a", "u", 5), job("a", "u", 1), false, false},
		{"higher wait at the maximum", job("c", "u", 20), job("c", "u", 30), false, false},
		{"higher wait at the minimum", job("a", "u", 5), job("a", "u", 15), true, true},
		{"lower wait at the maximum", job("c", "u", 20), job("c", "u", 15), true, true},
		{"the minimum to another user", job("a", "u", 5), job("a", "v", 5), true, false},
		{"a middle job to another user", job("b", "u", 10), job("b", "v", 10), false, false},
	} {
		var tb tables
		for _, r := range []*Record{job("a", "u", 5), job("b", "u", 10), job("c", "u", 20)} {
			tb.add(r)
		}
		var stale [len(tableDims)]bool
		tb.replace(c.old, c.new, &stale)
		for d := range stale {
			want := c.others
			if d == byUser {
				want = c.stale
			}
			if stale[d] != want {
				t.Errorf("%s: table %q stale %v, want %v", c.name, tableDims[d], stale[d], want)
			}
		}
		if !stale[byUser] {
			// Not stale: the extremes the fold left must be the group's.
			cut := Records{job("a", "u", 5), job("b", "u", 10), job("c", "u", 20)}
			cut[slices.IndexFunc(cut, func(r *Record) bool { return r.JobID == c.old.JobID })] = c.new
			if got, want := aggLines(tb[byUser].aggregates(3)), aggLines(cut.GroupBy(ByUser)); got != want {
				t.Errorf("%s: folded\n%s\nwalked\n%s", c.name, got, want)
			}
		}
	}
}

// TestTableSlotsFollowLiveGroups moves one job through ever-new users,
// applications and months among a few jobs that stay: each move empties
// a group. The tables must drop emptied slots, holding at most two slots
// a live group, and still answer as the walk does.
func TestTableSlotsFollowLiveGroups(t *testing.T) {
	r := rng.New(89)
	s := NewSharded(ShardedConfig{Shards: 2})
	for i := 0; i < 4; i++ {
		if err := s.Ingest(synthRecord(r, fmt.Sprint("stay-", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		m := synthRecord(r, "mover")
		m.User, m.AppLabel = fmt.Sprint("user-", i), fmt.Sprint("app-", i)
		m.Start += int64(i) * 31 * 24 * 3600
		m.Submit += int64(i) * 31 * 24 * 3600
		if err := s.Ingest(m); err != nil {
			t.Fatal(err)
		}
		v := s.Snapshot()
		checkTables(t, fmt.Sprint("move ", i), v)
		for d := range v.tables {
			tb := &v.tables[d]
			live := 0
			for k := range tb.accs {
				if tb.accs[k].jobs > 0 {
					live++
				}
			}
			if live != len(tb.accs)-tb.empty || len(tb.accs) > 2*live || len(tb.keys) != len(tb.accs) || len(tb.slot) != len(tb.accs) {
				t.Fatalf("move %d: table %q holds %d slots (%d keys, %d mapped, %d counted empty) for %d live groups",
					i, tableDims[d], len(tb.accs), len(tb.keys), len(tb.slot), tb.empty, live)
			}
		}
	}
}

var benchCut Records

// BenchmarkShardedSnapshot cuts a 7 000-job warehouse after every 100
// fresh jobs (re-ingests of random ids, so its size holds). ns/op
// includes the ingests; ns/cut is the cut alone.
func BenchmarkShardedSnapshot(b *testing.B) {
	const jobs, fresh = 7000, 100
	r := rng.New(5)
	s := NewSharded(ShardedConfig{Shards: 4})
	for i := 0; i < jobs; i++ {
		if err := s.Ingest(synthRecord(r, fmt.Sprintf("job-%05d", i))); err != nil {
			b.Fatal(err)
		}
	}
	benchCut = s.Snapshot().Records
	var cutting time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < fresh; k++ {
			if err := s.Ingest(synthRecord(r, fmt.Sprintf("job-%05d", r.Intn(jobs)))); err != nil {
				b.Fatal(err)
			}
		}
		t0 := time.Now()
		benchCut = s.Snapshot().Records
		cutting += time.Since(t0)
	}
	b.ReportMetric(float64(cutting.Nanoseconds())/float64(b.N), "ns/cut")
}

var benchGroups []*Aggregate

// BenchmarkSnapshotGroupBy times GroupBy(ByApplication) on one cut of
// 2 000 and of 8 000 jobs. Read from the cut's tables it costs
// O(groups) plus one compare of the cut's record pointers (folded), so
// ns/op grows with the cut's size by that compare alone.
func BenchmarkSnapshotGroupBy(b *testing.B) {
	for _, jobs := range []int{2000, 8000} {
		b.Run(fmt.Sprint("jobs=", jobs), func(b *testing.B) {
			r := rng.New(5)
			s := NewSharded(ShardedConfig{Shards: 4})
			for i := 0; i < jobs; i++ {
				if err := s.Ingest(synthRecord(r, fmt.Sprintf("job-%05d", i))); err != nil {
					b.Fatal(err)
				}
			}
			v := s.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchGroups = v.GroupBy(ByApplication)
			}
		})
	}
}

func TestRollupKeyNegative(t *testing.T) {
	cases := []struct{ start, want int64 }{
		{0, 0},
		{3599, 0},
		{3600, 3600},
		{-1, -3600},
		{-3600, -3600},
		{-3601, -7200},
	}
	for _, c := range cases {
		if got := rollupKey(c.start); got != c.want {
			t.Errorf("rollupKey(%d) = %d, want %d", c.start, got, c.want)
		}
	}
}
