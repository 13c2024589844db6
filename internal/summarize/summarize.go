// Package summarize converts raw TACC_Stats node archives into the
// job-level SUPReMM summaries of the paper's Table 1: for every base metric
// the across-node mean of the node's time-averaged value, plus the
// "...COV" attributes -- the across-node coefficient of variation -- and the
// derived CATASTROPHE and CPU USER IMBALANCE metrics used by the paper's
// efficiency labeling.
//
// The summarizer must unwrap 48-bit hardware-counter rollover, tolerate
// arbitrary counter bases, treat gauges and counters differently, and
// handle degenerate jobs (single node: COV is zero; fewer than two samples
// or a 64-bit counter that runs backwards: rejected as unsummarizable, as
// the production pipeline does). Each node is one Node fold, so batch and
// streamed jobs share a body.
package summarize

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/stats"
	"repro/internal/taccstats"
)

// ErrTooFewSamples marks an archive without enough samples to summarize.
var ErrTooFewSamples = errors.New("summarize: node archive has fewer than two samples")

// Summary is the job-level SUPReMM record.
type Summary struct {
	JobID       string
	Nodes       int
	WallSeconds float64

	// Means[m] is the across-node mean of each node's time-averaged value
	// of metric m. COVs[m] is the across-node coefficient of variation
	// (population stddev / mean); zero for single-node jobs.
	Means [apps.NumMetrics]float64
	COVs  [apps.NumMetrics]float64

	// Catastrophe is the minimum over nodes of (lowest interval CPU-user
	// rate / highest interval CPU-user rate). Values near 1 indicate
	// steady CPU activity; values near 0 indicate activity collapsed
	// partway through the job.
	Catastrophe float64

	// CPUUserImbalance is (max - min)/max of the per-node CPU user
	// fraction: near 0 when all nodes work equally, near 1 when some
	// nodes idle while others compute.
	CPUUserImbalance float64

	// SegmentMeans, when segment summarization is enabled, holds the
	// across-node mean metric values for equal time slices of the job
	// (the paper's "time dependent attributes" extension).
	SegmentMeans [][apps.NumMetrics]float64

	// DroppedNodes lists hosts whose archives could not be summarized and
	// were skipped (only with Options.SkipBadNodes).
	DroppedNodes []string
}

// Options configures summarization.
type Options struct {
	// Segments > 0 additionally produces per-time-slice means
	// (Summary.SegmentMeans) with the given number of slices.
	Segments int
	// SkipBadNodes tolerates nodes whose archives cannot be summarized
	// (crashed node, truncated archive): they are dropped and recorded in
	// Summary.DroppedNodes instead of failing the job, as the production
	// pipeline does. At least one summarizable node is still required.
	SkipBadNodes bool
}

// nodeStats is one node's reduction, read from its fold.
type nodeStats struct {
	avg         [apps.NumMetrics]float64
	catastrophe float64
	segments    [][apps.NumMetrics]float64
	duration    float64
}

// Summarize reduces a job's raw archive to its SUPReMM summary: it folds
// each node's samples through a Node and combines the folds with Nodes.
// cfg is unused (the collector layout is fixed); the parameter stays
// because the benchmark module calls this signature.
func Summarize(a *taccstats.Archive, cfg taccstats.Config, opt Options) (*Summary, error) {
	nodes := make([]*Node, len(a.Nodes))
	for i := range a.Nodes {
		n := &a.Nodes[i]
		nd := &Node{Host: n.Host}
		// The batch path knows each node's span before it folds, so its
		// time slices accumulate inline.
		if k := len(n.Samples); opt.Segments > 0 && k > 1 {
			nd.span = float64(n.Samples[k-1].Time - n.Samples[0].Time)
			nd.segs = make([][apps.NumMetrics]float64, opt.Segments)
			nd.segDT = make([]float64, opt.Segments)
		}
		for j := range n.Samples {
			nd.Add(&n.Samples[j])
		}
		nodes[i] = nd
	}
	return Nodes(a.JobID, nodes, opt.SkipBadNodes)
}

// Nodes combines per-node folds, in the given order, into the job
// summary: across-node means and COVs, CATASTROPHE and CPU USER
// IMBALANCE. With skipBad a node whose fold failed is listed in
// DroppedNodes instead of failing the job; at least one node must
// summarize either way.
func Nodes(jobID string, nodes []*Node, skipBad bool) (*Summary, error) {
	if len(nodes) == 0 {
		return nil, errors.New("summarize: archive has no nodes")
	}
	perNode := make([]nodeStats, 0, len(nodes))
	var dropped []string
	for _, nd := range nodes {
		ns, err := nd.result()
		if err != nil {
			if skipBad {
				dropped = append(dropped, nd.Host)
				continue
			}
			return nil, fmt.Errorf("node %s: %w", nd.Host, err)
		}
		perNode = append(perNode, ns)
	}
	if len(perNode) == 0 {
		return nil, fmt.Errorf("summarize: job %s has no summarizable nodes (%d dropped)", jobID, len(dropped))
	}

	s := &Summary{JobID: jobID, Nodes: len(perNode), WallSeconds: perNode[0].duration, DroppedNodes: dropped}
	var accs [apps.NumMetrics]stats.Accumulator
	for _, ns := range perNode {
		for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
			accs[m].Add(ns.avg[m])
		}
	}
	for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
		s.Means[m] = accs[m].Mean()
		s.COVs[m] = accs[m].COV()
	}

	s.Catastrophe = 1
	for _, ns := range perNode {
		if ns.catastrophe < s.Catastrophe {
			s.Catastrophe = ns.catastrophe
		}
	}
	maxU, minU := math.Inf(-1), math.Inf(1)
	for _, ns := range perNode {
		u := ns.avg[apps.CPUUser]
		if u > maxU {
			maxU = u
		}
		if u < minU {
			minU = u
		}
	}
	if maxU > 0 {
		s.CPUUserImbalance = (maxU - minU) / maxU
	}

	if k := len(perNode[0].segments); k > 0 {
		s.SegmentMeans = make([][apps.NumMetrics]float64, k)
		for seg := 0; seg < k; seg++ {
			var segAccs [apps.NumMetrics]stats.Accumulator
			for _, ns := range perNode {
				for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
					segAccs[m].Add(ns.segments[seg][m])
				}
			}
			for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
				s.SegmentMeans[seg][m] = segAccs[m].Mean()
			}
		}
	}
	return s, nil
}

// The devices intervalRates reads, in schema order, and the most values
// it keeps of one (the PMC's four).
const (
	devCPU = iota
	devPMC
	devMem
	devNet
	devIB
	devNFS
	devLLite
	devLNet
	devBlock
	numDevices
	maxValues = 4
)

// deviceNames names each device index, for error text.
var deviceNames = [numDevices]string{
	taccstats.DevCPU, taccstats.DevPMC, taccstats.DevMem, taccstats.DevNet, taccstats.DevIB,
	taccstats.DevNFS, taccstats.DevLLite, taccstats.DevLNet, taccstats.DevBlock,
}

// deviceIndex returns name's device index, or -1 for a device
// intervalRates does not read.
func deviceIndex(name string) int {
	switch name {
	case taccstats.DevCPU:
		return devCPU
	case taccstats.DevPMC:
		return devPMC
	case taccstats.DevMem:
		return devMem
	case taccstats.DevNet:
		return devNet
	case taccstats.DevIB:
		return devIB
	case taccstats.DevNFS:
		return devNFS
	case taccstats.DevLLite:
		return devLLite
	case taccstats.DevLNet:
		return devLNet
	case taccstats.DevBlock:
		return devBlock
	}
	return -1
}

// reading is the part of a sample intervalRates reads, copied out of it:
// the time, and each device's first record's leading values. n[d] is
// how many values that record has (0 for a missing device); vals[d]
// holds the first maxValues of them.
type reading struct {
	time int64
	n    [numDevices]int
	vals [numDevices][maxValues]uint64
}

// read fills r from s in one pass over its records. The first record
// of a device wins, as a lookup by name would find it.
func (r *reading) read(s *taccstats.Sample) {
	r.time = s.Time
	r.n = [numDevices]int{}
	var seen uint16
	for i := range s.Records {
		rec := &s.Records[i]
		d := deviceIndex(rec.Device)
		if d < 0 || seen&(1<<d) != 0 {
			continue
		}
		seen |= 1 << d
		r.n[d] = len(rec.Values)
		copy(r.vals[d][:], rec.Values)
	}
}

// intervalRates computes the per-second metric rates over one reading
// pair. A missing device or a 64-bit kernel counter that decreased is an
// error: only the 48-bit PMCs wrap within a job.
func intervalRates(prev, cur *reading) (rates [apps.NumMetrics]float64, dt float64, err error) {
	dt = float64(cur.time - prev.time)
	if dt <= 0 {
		return rates, 0, fmt.Errorf("non-increasing sample times %d -> %d", prev.time, cur.time)
	}
	delta := func(dev int, idx int, pmc bool) float64 {
		if idx >= prev.n[dev] || idx >= cur.n[dev] {
			err = fmt.Errorf("missing device %s[%d]", deviceNames[dev], idx)
			return 0
		}
		p, c := prev.vals[dev][idx], cur.vals[dev][idx]
		if !pmc && c < p {
			err = fmt.Errorf("counter %s[%d] went backwards", deviceNames[dev], idx)
			return 0
		}
		return float64(taccstats.CounterDelta(p, c, pmc))
	}

	du := delta(devCPU, 0, false)
	ds := delta(devCPU, 1, false)
	di := delta(devCPU, 2, false)
	total := du + ds + di
	if total > 0 {
		rates[apps.CPUUser] = du / total
		rates[apps.CPUSystem] = ds / total
		rates[apps.CPUIdle] = di / total
	} else {
		rates[apps.CPUIdle] = 1
	}

	cyc := delta(devPMC, 0, true)
	ins := delta(devPMC, 1, true)
	l1d := delta(devPMC, 2, true)
	flops := delta(devPMC, 3, true)
	if ins > 0 {
		rates[apps.CPI] = cyc / ins
	}
	if l1d > 0 {
		rates[apps.CPLD] = cyc / l1d
	}
	rates[apps.Flops] = flops / dt

	// Memory footprint is a gauge: use the closing sample's reading.
	if cur.n[devMem] > 0 {
		rates[apps.MemUsed] = float64(cur.vals[devMem][0])
	}
	rates[apps.MemBW] = delta(devMem, 1, false) / dt
	rates[apps.EthTx] = delta(devNet, 0, false) / dt
	rates[apps.IBRx] = delta(devIB, 0, false) / dt
	rates[apps.IBTx] = delta(devIB, 1, false) / dt
	rates[apps.HomeWrite] = delta(devNFS, 0, false) / dt
	rates[apps.ScratchWrite] = delta(devLLite, 0, false) / dt
	rates[apps.LustreTx] = delta(devLNet, 0, false) / dt
	rates[apps.DiskReadIOPS] = delta(devBlock, 0, false) / dt
	rates[apps.DiskReadBytes] = delta(devBlock, 1, false) / dt
	rates[apps.DiskWriteBytes] = delta(devBlock, 2, false) / dt
	return rates, dt, err
}

// Node folds one node's samples, in time order, into the per-node
// reduction the job summary combines: time-weighted rates, the CPU-user
// extremes CATASTROPHE reads, and the node's span. Its state is O(1) in
// the job's length and holds no sample: it keeps the last one as a
// fixed-size reading of the counters the rates need, so a caller may
// reuse a sample's arrays once Add returns. A streaming consumer feeds
// samples as they arrive and a batch one walks its archive; both get
// the same bits. The zero value with Host set is ready to use.
type Node struct {
	Host string

	n     int     // samples added
	prev  reading // last sample added
	start int64   // first sample's time
	err   error   // first interval error; sticky

	sum        [apps.NumMetrics]float64 // Σ rate·dt per metric
	dt         float64                  // Σ dt
	minU, maxU float64                  // interval CPU-user extremes

	// Time slices (batch only): the node's span is set before folding.
	span  float64
	segs  [][apps.NumMetrics]float64 // Σ rate·dt per slice
	segDT []float64                  // Σ dt per slice
}

// Len returns how many samples the fold has seen.
func (nd *Node) Len() int { return nd.n }

// Add folds the next sample. After an interval error the fold only
// counts samples; the error is reported by the summary.
func (nd *Node) Add(s *taccstats.Sample) {
	var cur reading
	cur.read(s)
	nd.n++
	if nd.n == 1 {
		nd.start = s.Time
	} else if nd.err == nil {
		nd.interval(&cur)
	}
	nd.prev = cur
}

// interval folds the rates from the previous reading to cur, each sum in
// interval order.
func (nd *Node) interval(cur *reading) {
	r, dt, err := intervalRates(&nd.prev, cur)
	if err != nil {
		nd.err = err
		return
	}
	nd.dt += dt
	for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
		nd.sum[m] += r[m] * dt
	}
	u := r[apps.CPUUser]
	if nd.n == 2 || u < nd.minU {
		nd.minU = u
	}
	if nd.n == 2 || u > nd.maxU {
		nd.maxU = u
	}
	if k := len(nd.segs); k > 0 {
		mid := float64(nd.prev.time+cur.time)/2 - float64(nd.start)
		seg := min(max(int(mid/nd.span*float64(k)), 0), k-1)
		for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
			nd.segs[seg][m] += r[m] * dt
		}
		nd.segDT[seg] += dt
	}
}

// result is the node's reduction over the samples folded so far; it
// leaves the fold unchanged, so a prefix can be read mid-stream.
func (nd *Node) result() (nodeStats, error) {
	var ns nodeStats
	if nd.n < 2 {
		return ns, ErrTooFewSamples
	}
	if nd.err != nil {
		return ns, nd.err
	}
	ns.duration = float64(nd.prev.time - nd.start)
	for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
		ns.avg[m] = nd.sum[m] / nd.dt
	}
	// CATASTROPHE: lowest/highest interval CPU-user rate. A single
	// interval cannot show a collapse, so it reports 1.
	if nd.n < 3 || nd.maxU <= 0 {
		ns.catastrophe = 1
	} else {
		ns.catastrophe = nd.minU / nd.maxU
	}
	if len(nd.segs) > 0 {
		ns.segments = make([][apps.NumMetrics]float64, len(nd.segs))
		for seg := range nd.segs {
			if nd.segDT[seg] == 0 {
				// Empty slice (short job): inherit the node average so
				// segment features degrade gracefully to the mean.
				ns.segments[seg] = ns.avg
				continue
			}
			for m := apps.MetricID(0); m < apps.NumMetrics; m++ {
				ns.segments[seg][m] = nd.segs[seg][m] / nd.segDT[seg]
			}
		}
	}
	return ns, nil
}
