package warehouse

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Int128 is a two's-complement 128-bit integer: an exact sum of int64
// terms. No record set that fits in memory can wrap it, so additions
// and subtractions commute and are exact inverses.
type Int128 struct{ hi, lo uint64 }

// int128 sign-extends x.
func int128(x int64) Int128 { return Int128{uint64(x >> 63), uint64(x)} }

func (a Int128) plus(b Int128) Int128 {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, c)
	return Int128{hi, lo}
}

func (a Int128) minus(b Int128) Int128 {
	lo, c := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, c)
	return Int128{hi, lo}
}

// small reports whether a fits an int64.
func (a Int128) small() bool { return a.hi == uint64(int64(a.lo)>>63) }

// float converts a to the nearest float64 when it fits an int64, and
// otherwise by rounding its high and low words in turn: either way a
// function of the integer alone.
func (a Int128) float() float64 {
	if a.small() {
		return float64(int64(a.lo))
	}
	return float64(int64(a.hi))*0x1p64 + float64(a.lo)
}

// hours converts a sum of milliseconds to hours.
func (a Int128) hours() float64 { return a.float() / (1000 * 3600) }

// String prints a as an exact decimal integer.
func (a Int128) String() string {
	if a.small() {
		return strconv.FormatInt(int64(a.lo), 10)
	}
	n := new(big.Int).Lsh(big.NewInt(int64(a.hi)), 64)
	return n.Add(n, new(big.Int).SetUint64(a.lo)).String()
}

// MarshalJSON encodes a as a bare decimal integer, the bytes an int64
// of the same value encodes to.
func (a Int128) MarshalJSON() ([]byte, error) { return []byte(a.String()), nil }

// acc is one group's exact totals: every field an integer sum, so the
// same jobs fold to the same bits in any order, and folding a job out
// undoes folding it in. Its one fold-in body (add), one fold-out body
// (remove) and one read (finish) serve the record-walking queries, the
// hourly rollup and the tables a Sharded keeps at its cut.
type acc struct {
	jobs       int64
	nSummaries int64  // jobs with a SUPReMM summary
	wallMillis Int128 // each job's wall rounded to the millisecond once
	coreMillis Int128 // Σ cores × that job's wall milliseconds
	waitSecs   Int128
	nodes      Int128
	cpuUser    Int128 // Σ summary CPU-user mean × cpuUserScale
	minWait    int64
	maxWait    int64
}

// cpuUserScale is the fixed-point scale of the CPU-user sum (1e-9
// units). The door bounds a mean below maxCPUUser = 2^31, so one job's
// term stays under 2^61.
const cpuUserScale = 1e9

// terms returns a record's integer contributions.
func terms(r *Record) (wallMillis, coreMillis, wait int64) {
	wallMillis = int64(math.Round(r.WallSeconds * 1000))
	return wallMillis, int64(r.Cores) * wallMillis, r.Start - r.Submit
}

// cpuUserTerm returns a summarized record's CPU-user mean in fixed point
// (apps.CPUUser is metric 0).
func cpuUserTerm(r *Record) int64 { return int64(math.Round(r.Summary.Means[0] * cpuUserScale)) }

// add folds r in.
func (a *acc) add(r *Record) {
	wallMillis, coreMillis, wait := terms(r)
	if a.jobs == 0 || wait < a.minWait {
		a.minWait = wait
	}
	if a.jobs == 0 || wait > a.maxWait {
		a.maxWait = wait
	}
	a.jobs++
	a.wallMillis = a.wallMillis.plus(int128(wallMillis))
	a.coreMillis = a.coreMillis.plus(int128(coreMillis))
	a.waitSecs = a.waitSecs.plus(int128(wait))
	a.nodes = a.nodes.plus(int128(int64(r.Nodes)))
	if r.Summary != nil {
		a.nSummaries++
		a.cpuUser = a.cpuUser.plus(int128(cpuUserTerm(r)))
	}
}

// remove folds r, which add folded in earlier, back out; heir, if not
// nil, is the record about to be folded into the same group in r's
// place. It reports whether r held the group's minimum or maximum wait
// while other jobs remain and heir does not take that extreme over
// (a wait at least as low, or as high): the extremes are then stale,
// and only a walk of the group's jobs can restore them.
func (a *acc) remove(r, heir *Record) (staleExtremes bool) {
	wallMillis, coreMillis, wait := terms(r)
	a.jobs--
	a.wallMillis = a.wallMillis.minus(int128(wallMillis))
	a.coreMillis = a.coreMillis.minus(int128(coreMillis))
	a.waitSecs = a.waitSecs.minus(int128(wait))
	a.nodes = a.nodes.minus(int128(int64(r.Nodes)))
	if r.Summary != nil {
		a.nSummaries--
		a.cpuUser = a.cpuUser.minus(int128(cpuUserTerm(r)))
	}
	if a.jobs == 0 {
		return false
	}
	lostMin, lostMax := wait == a.minWait, wait == a.maxWait
	if heir != nil {
		w := heir.Start - heir.Submit
		lostMin, lostMax = lostMin && w > wait, lostMax && w < wait
	}
	return lostMin || lostMax
}

// finish derives the group's Aggregate; of is the job count MixPercent
// is a share of.
func (a *acc) finish(key string, of int) *Aggregate {
	jobs := float64(a.jobs)
	g := &Aggregate{
		Key:        key,
		Jobs:       int(a.jobs),
		CPUHours:   a.coreMillis.hours(),
		WallHours:  a.wallMillis.hours(),
		AvgWaitHrs: a.waitSecs.float() / jobs / 3600,
		AvgNodes:   a.nodes.float() / jobs,
		MixPercent: 100 * jobs / float64(of),
		minWait:    float64(a.minWait),
		maxWait:    float64(a.maxWait),
	}
	if a.nSummaries > 0 {
		g.AvgCPUUser = a.cpuUser.float() / cpuUserScale / float64(a.nSummaries)
	}
	return g
}
