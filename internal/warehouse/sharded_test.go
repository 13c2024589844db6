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
	s := NewSharded(ShardedConfig{})
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
	s := NewSharded(ShardedConfig{})
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

// TestShardedShardCountInvariance ingests the same record set from four
// writers in different interleavings, cut once at the end or every 1, 7
// or 50 ingests of each writer, and demands digest-equal snapshots, each
// also equal to the serial Store: neither the interleaving nor where the
// cuts fall shows in any query.
func TestShardedShardCountInvariance(t *testing.T) {
	build := func(cutEvery int) *WarehouseSnapshot {
		s := NewSharded(ShardedConfig{})
		var wg sync.WaitGroup
		const writers = 4
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Writer w owns ids w mod writers: same final record per id
				// regardless of scheduling.
				r := rng.New(7).Split(uint64(w))
				for i := w; i < 600; i += writers {
					rec := synthRecord(r, fmt.Sprintf("job-%04d", i))
					if err := s.Ingest(rec); err != nil {
						t.Error(err)
						return
					}
					if cutEvery > 0 && (i/writers)%cutEvery == 0 {
						s.Snapshot()
					}
				}
			}(w)
		}
		wg.Wait()
		return s.Snapshot()
	}
	// Writer w seeds its own rng, so record contents depend only on
	// (writer, position), not on the cuts.
	v1 := build(0)
	checkSnapshot(t, v1)
	want := queryDigests(v1)
	for _, every := range []int{1, 7, 50} {
		v := build(every)
		if v.Len() != v1.Len() {
			t.Fatalf("record counts differ: %d cut once, %d cut every %d", v1.Len(), v.Len(), every)
		}
		sameQueries(t, fmt.Sprintf("cut every %d vs once", every), queryDigests(v), want)
		checkSnapshot(t, v)
	}
}

// TestRollupReplacementExact replaces a job and checks the rollup
// holds only the replacement: the bucket the old record filled is gone.
func TestRollupReplacementExact(t *testing.T) {
	s := NewSharded(ShardedConfig{})
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
// Ingest tells apart — new ids, replacements of ids in the last cut,
// and one id ingested twice between cuts — with Snapshot calls. Each cut
// must be consistent and hold the pointers a from-scratch sort of the
// ingested holds, in the same order; a cut with no ingest before it
// must be the previous cut itself; and every earlier cut must still
// answer every query as it did when it was taken. Len counts each job
// once, new jobs not yet cut and ids ingested twice since the last cut
// included; on odd rounds it is also called before Snapshot.
func TestShardedIncrementalSnapshot(t *testing.T) {
	r := rng.New(53)
	s := NewSharded(ShardedConfig{})
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

// TestShardedCutPlaces is a seeded property test of where Ingest places
// each record in the last cut and how Snapshot merges them. Between two
// cuts, in shuffled order, it ingests several new ids into one gap of
// the cut, a new id just below a replaced one (both bound for the same
// place), a new id twice, a job of the cut replaced twice, and ids below
// the first job and above the last. Len must count the jobs after every
// ingest; each cut must hold the pointers a full sort of a Store fed the
// same records holds, and answer from tables equal to the walk.
func TestShardedCutPlaces(t *testing.T) {
	r := rng.New(59)
	s, ref := NewSharded(ShardedConfig{}), NewStore()
	num := map[string]int{}
	id := func(n int) string { return fmt.Sprintf("job-%08d", n) }
	ingest := func(ids []string) {
		t.Helper()
		for _, k := range r.Perm(len(ids)) {
			rec := synthRecord(r, ids[k])
			if err := s.Ingest(rec); err != nil {
				t.Fatal(err)
			}
			if err := ref.Ingest(rec); err != nil {
				t.Fatal(err)
			}
			if got := s.Len(); got != ref.Len() {
				t.Fatalf("Len = %d after ingesting %s, want %d jobs", got, rec.JobID, ref.Len())
			}
		}
	}
	var first []string
	for n := 10_000_000; n < 10_100_000; n += 1000 {
		first = append(first, id(n))
		num[id(n)] = n
	}
	ingest(first)
	v := s.Snapshot()
	for round := 0; round < 30; round++ {
		cut := v.Records
		fresh := func(lo, hi int) string { // an unused id strictly between lo and hi
			for {
				if n := lo + 1 + r.Intn(hi-lo-1); num[id(n)] == 0 {
					num[id(n)] = n
					return id(n)
				}
			}
		}
		var ids []string
		g := 1 + r.Intn(len(cut)-1) // several new ids in the gap before cut[g]
		for num[cut[g].JobID]-num[cut[g-1].JobID] < 8 {
			g = 1 + r.Intn(len(cut)-1)
		}
		for k := 0; k < 4; k++ {
			ids = append(ids, fresh(num[cut[g-1].JobID], num[cut[g].JobID]))
		}
		p := r.Intn(len(cut)) // a replacement of cut[p] and a new id just below it
		for num[id(num[cut[p].JobID]-1)] != 0 {
			p = r.Intn(len(cut))
		}
		below := num[cut[p].JobID] - 1
		num[id(below)] = below
		ids = append(ids, id(below), cut[p].JobID)
		twice := fresh(num[cut[0].JobID]-1000, num[cut[len(cut)-1].JobID]+1000)
		again := cut[r.Intn(len(cut))].JobID
		ids = append(ids, twice, twice, again, again,
			fresh(num[cut[0].JobID]-1000, num[cut[0].JobID]), fresh(num[cut[len(cut)-1].JobID], num[cut[len(cut)-1].JobID]+1000))
		ingest(ids)
		tie := slices.ContainsFunc(s.fresh, func(a pending) bool {
			return !a.found && slices.ContainsFunc(s.fresh, func(b pending) bool { return b.found && b.at == a.at })
		})
		if !tie {
			t.Fatalf("round %d: no new id shares its place with a replacement", round)
		}
		v = s.Snapshot()
		want := ref.Records()
		slices.SortFunc(want, func(a, b *Record) int { return strings.Compare(a.JobID, b.JobID) })
		if !slices.Equal(v.Records, want) {
			t.Fatalf("round %d: the cut of %d records is not the full sort's %d", round, len(v.Records), len(want))
		}
		checkTables(t, fmt.Sprint("round ", round), v)
	}
}

// TestShardedCutsWhenFreshIsFull ingests more records between two
// snapshots than wait for a cut at most, in shuffled order, with new
// ids, replacements of the cut's jobs and ids ingested twice. Ingest
// must keep those since the cut in merge order and at most maxFresh of
// them, taking the cut itself; the snapshot must still hold the pointers
// a full sort of a Store fed the same records holds and answer from
// tables equal to the walk, and the snapshot taken before must not move.
func TestShardedCutsWhenFreshIsFull(t *testing.T) {
	r := rng.New(67)
	s, ref := NewSharded(ShardedConfig{}), NewStore()
	before := s.Snapshot()
	var ids []string
	for round := 0; round < 2; round++ {
		held := slices.Clone(before.Records)
		batch := make([]string, 0, 3*maxFresh)
		for n := 0; n < 2*maxFresh; n++ {
			batch = append(batch, fmt.Sprintf("job-%06d", r.Intn(1_000_000)))
		}
		for n := 0; round > 0 && n < maxFresh/2; n++ {
			batch = append(batch, ids[r.Intn(len(ids))])
		}
		batch = append(batch, batch[:maxFresh/2]...)
		cuts := 0
		for _, k := range r.Perm(len(batch)) {
			last := s.last
			rec := synthRecord(r, batch[k])
			if err := s.Ingest(rec); err != nil {
				t.Fatal(err)
			}
			if err := ref.Ingest(rec); err != nil {
				t.Fatal(err)
			}
			if s.last != last {
				cuts++
			}
			if len(s.fresh) > maxFresh {
				t.Fatalf("round %d: %d records since the cut", round, len(s.fresh))
			}
			if len(s.fresh) == maxFresh && !slices.IsSortedFunc(s.fresh, mergeOrder) {
				t.Fatalf("round %d: the %d records since the cut are not in merge order", round, len(s.fresh))
			}
		}
		if !slices.IsSortedFunc(s.fresh, mergeOrder) {
			t.Fatalf("round %d: the %d records since the cut are not in merge order", round, len(s.fresh))
		}
		if cuts == 0 || s.Len() != ref.Len() {
			t.Fatalf("round %d: Ingest took %d cuts; Len %d, want %d", round, cuts, s.Len(), ref.Len())
		}
		v := s.Snapshot()
		want := ref.Records()
		slices.SortFunc(want, func(a, b *Record) int { return strings.Compare(a.JobID, b.JobID) })
		if !slices.Equal(v.Records, want) {
			t.Fatalf("round %d: the cut of %d records is not the full sort's %d", round, len(v.Records), len(want))
		}
		checkTables(t, fmt.Sprint("round ", round), v)
		if !slices.Equal(before.Records, held) {
			t.Fatalf("round %d: the snapshot taken before the round moved", round)
		}
		checkTables(t, fmt.Sprint("round ", round, ", the snapshot before"), before)
		before, ids = v, nil
		for _, rec := range v.Records {
			ids = append(ids, rec.JobID)
		}
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
	s := NewSharded(ShardedConfig{})
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

// TestSnapshotReadersBesideFolds reads cuts while later ingests fold new
// groups into the key slices and slot maps the cuts share: every ingest
// opens a user group, and each reader's GroupBy and Totals must account
// for exactly its cut's jobs. Each writer also holds two older cuts, and
// their GroupBy and Totals must read the same bytes after every later
// ingest: the live tables fork before their first write. Run under -race
// via `make race`.
func TestSnapshotReadersBesideFolds(t *testing.T) {
	s := NewSharded(ShardedConfig{})
	read := func(v *WarehouseSnapshot) string {
		tot := v.Totals()
		return aggLines(v.GroupBy(ByUser)) + aggLine(&tot)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(71).Split(uint64(w))
			type held struct {
				v     *WarehouseSnapshot
				bytes string
			}
			var old []held
			for i := 0; i < 200; i++ {
				rec := synthRecord(r, fmt.Sprintf("job-%d-%03d", w, i))
				rec.User = rec.JobID
				if err := s.Ingest(rec); err != nil {
					t.Error(err)
					return
				}
				for k, h := range old {
					if got := read(h.v); got != h.bytes {
						t.Errorf("writer %d: held cut %d of %d jobs reads other bytes after ingest %d", w, k, h.v.Len(), i)
						return
					}
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
				if i == 20 || i == 120 {
					old = append(old, held{v, read(v)})
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
	s := NewSharded(ShardedConfig{})
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
	s := NewSharded(ShardedConfig{})
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

// BenchmarkShardedSnapshot times a Sharded's ingests and cuts under two
// kinds of traffic. ns/op is a round of ingests and the cut after it;
// ns/cut is the cut alone and ns/ingest one ingest alone.
//
//   - merge: a 7 000-job warehouse cut after every 100 re-ingests of
//     random ids, so every record replaces one and the size holds.
//   - grow: the ingest-stream reader's view. Passes of 300 jobs, each
//     id suffixed with its pass number so a pass interleaves through the
//     cut, arrive 60 new records per cut, with no replacements, until the
//     cut holds 6 900 jobs; then a fresh warehouse starts over.
func BenchmarkShardedSnapshot(b *testing.B) {
	b.Run("merge", func(b *testing.B) {
		const jobs, fresh = 7000, 100
		r := rng.New(5)
		s := NewSharded(ShardedConfig{})
		for i := 0; i < jobs; i++ {
			if err := s.Ingest(synthRecord(r, fmt.Sprintf("job-%05d", i))); err != nil {
				b.Fatal(err)
			}
		}
		benchCut = s.Snapshot().Records
		recs := make([]*Record, fresh)
		var ingesting, cutting time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range recs {
				recs[k] = synthRecord(r, fmt.Sprintf("job-%05d", r.Intn(jobs)))
			}
			t0 := time.Now()
			for _, rec := range recs {
				if err := s.Ingest(rec); err != nil {
					b.Fatal(err)
				}
			}
			t1 := time.Now()
			benchCut = s.Snapshot().Records
			ingesting, cutting = ingesting+t1.Sub(t0), cutting+time.Since(t1)
		}
		b.ReportMetric(float64(cutting.Nanoseconds())/float64(b.N), "ns/cut")
		b.ReportMetric(float64(ingesting.Nanoseconds())/float64(b.N*fresh), "ns/ingest")
	})
	b.Run("grow", func(b *testing.B) {
		const perPass, passes, fresh = 300, 23, 60
		r := rng.New(7)
		var stream []*Record
		for p := 0; p < passes; p++ {
			for _, k := range r.Perm(perPass) {
				stream = append(stream, synthRecord(r, fmt.Sprintf("job-%05d-p%03d", 1000+37*k, p)))
			}
		}
		var s *Sharded
		next := len(stream)
		var ingesting, cutting time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if next == len(stream) {
				s, next = NewSharded(ShardedConfig{}), 0
			}
			t0 := time.Now()
			for _, rec := range stream[next:min(next+fresh, len(stream))] {
				if err := s.Ingest(rec); err != nil {
					b.Fatal(err)
				}
			}
			t1 := time.Now()
			benchCut = s.Snapshot().Records
			ingesting, cutting = ingesting+t1.Sub(t0), cutting+time.Since(t1)
			next = min(next+fresh, len(stream))
		}
		b.ReportMetric(float64(cutting.Nanoseconds())/float64(b.N), "ns/cut")
		b.ReportMetric(float64(ingesting.Nanoseconds())/float64(b.N*fresh), "ns/ingest")
	})
}

// TestGroupByFromTablesAllocatesTwice pins GroupBy read from a cut's
// tables at two allocations, the Aggregates and the pointers to them,
// on a table of about 300 user groups.
func TestGroupByFromTablesAllocatesTwice(t *testing.T) {
	r := rng.New(67)
	s := NewSharded(ShardedConfig{})
	for i := 0; i < 1200; i++ {
		rec := synthRecord(r, fmt.Sprintf("job-%04d", i))
		rec.User = fmt.Sprint("user-", r.Intn(300))
		if err := s.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	v := s.Snapshot()
	if n := len(v.GroupBy(ByUser)); n < 250 {
		t.Fatalf("%d user groups, want about 300", n)
	}
	if allocs := testing.AllocsPerRun(20, func() { benchGroups = v.GroupBy(ByUser) }); allocs != 2 {
		t.Fatalf("GroupBy(ByUser) from the tables makes %v allocations, want 2", allocs)
	}
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
			s := NewSharded(ShardedConfig{})
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
