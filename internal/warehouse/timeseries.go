package warehouse

import (
	"slices"
	"sort"
	"time"
)

// UtilizationPoint is one month of machine utilization, the headline
// XDMoD chart (delivered node-hours / available node-hours).
type UtilizationPoint struct {
	Month        string  `json:"month"` // "2014-01"
	Jobs         int     `json:"jobs"`  // jobs that overlapped the month
	NodeHours    float64 `json:"nodeHours"`
	CPUHours     float64 `json:"cpuHours"`
	Utilization  float64 `json:"utilization"`  // NodeHours / (machine nodes * hours in month)
	AvgWaitHours float64 `json:"avgWaitHours"` // mean queue wait of jobs STARTING in the month
}

// Utilization computes the monthly utilization series for a machine of
// the given node count, in month order. Job node-hours are apportioned
// to months by overlap, so a job spanning a month boundary contributes
// to both. Months are keyed by their first second, so every year the
// door admits sorts and sizes right; the "2006-01" label is only output.
func (rs Records) Utilization(machineNodes int) []UtilizationPoint {
	if machineNodes <= 0 || len(rs) == 0 {
		return nil
	}
	type agg struct {
		jobs      map[string]bool
		nodeHours float64
		cpuHours  float64
		waitSum   float64
		waitN     int
	}
	months := map[int64]*agg{}
	get := func(key int64) *agg {
		a, ok := months[key]
		if !ok {
			a = &agg{jobs: map[string]bool{}}
			months[key] = a
		}
		return a
	}

	for _, r := range rs {
		start := r.Start
		end := r.Start + int64(r.WallSeconds)
		if end <= start {
			end = start + 1
		}
		// Walk months the job overlaps.
		t := time.Unix(start, 0).UTC()
		first := time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
		for cursor := first; cursor.Unix() < end; {
			next := cursor.AddDate(0, 1, 0)
			overlapStart := max(start, cursor.Unix())
			overlapEnd := min(end, next.Unix())
			if overlapEnd > overlapStart {
				a := get(cursor.Unix())
				a.jobs[r.JobID] = true
				hours := float64(overlapEnd-overlapStart) / 3600
				a.nodeHours += hours * float64(r.Nodes)
				a.cpuHours += hours * float64(r.Cores)
			}
			cursor = next
		}
		a := get(first.Unix())
		a.waitSum += r.WaitSeconds()
		a.waitN++
	}

	keys := make([]int64, 0, len(months))
	for k := range months {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]UtilizationPoint, 0, len(keys))
	for _, k := range keys {
		a := months[k]
		monthStart := time.Unix(k, 0).UTC()
		monthHours := monthStart.AddDate(0, 1, 0).Sub(monthStart).Hours()
		p := UtilizationPoint{
			Month:       monthKey(k),
			Jobs:        len(a.jobs),
			NodeHours:   a.nodeHours,
			CPUHours:    a.cpuHours,
			Utilization: a.nodeHours / (float64(machineNodes) * monthHours),
		}
		if a.waitN > 0 {
			p.AvgWaitHours = a.waitSum / float64(a.waitN) / 3600
		}
		out = append(out, p)
	}
	return out
}

// rollupBucketSeconds is the rollup bucket width: one hour, keyed by job
// start time.
const rollupBucketSeconds = 3600

// RollupBucket is one time bucket's integer-exact totals, so bucket
// arithmetic never loses associativity to floating-point rounding and
// the same jobs roll up bit-identically in any order. The sums are
// 128-bit, so no admissible record set wraps them; each encodes as a
// JSON decimal integer.
type RollupBucket struct {
	Bucket      int64  `json:"bucket"` // unix seconds, inclusive start
	Jobs        int64  `json:"jobs"`
	WallMillis  Int128 `json:"wallMillis"`
	CoreMillis  Int128 `json:"coreMillis"`
	WaitSeconds Int128 `json:"waitSeconds"`
	Nodes       Int128 `json:"nodes"`
}

// rollupKey truncates a start time to its bucket (floor, so a negative
// start lands in the bucket below zero).
func rollupKey(start int64) int64 {
	k := start - start%rollupBucketSeconds
	if start < 0 && start%rollupBucketSeconds != 0 {
		k -= rollupBucketSeconds
	}
	return k
}

// Rollup totals the records into hourly buckets by start time, in
// bucket order, each bucket folding its jobs through acc.
func (rs Records) Rollup() []RollupBucket {
	buckets := map[int64]*acc{}
	for _, r := range rs {
		key := rollupKey(r.Start)
		a := buckets[key]
		if a == nil {
			a = new(acc)
			buckets[key] = a
		}
		a.add(r)
	}
	out := make([]RollupBucket, 0, len(buckets))
	for key, a := range buckets {
		out = append(out, RollupBucket{
			Bucket: key, Jobs: a.jobs, WallMillis: a.wallMillis,
			CoreMillis: a.coreMillis, WaitSeconds: a.waitSecs, Nodes: a.nodes,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out
}
