// Package appkernel implements the XDMoD application-kernel QoS subsystem
// the paper describes: computationally lightweight benchmark applications
// submitted periodically through the normal batch queue, whose wall times
// are tracked by process-control algorithms that alert support staff when
// a kernel starts under-performing. It also implements the paper's Section
// IV extension: SVM and random-forest regression of application-kernel
// wall time from run parameters.
package appkernel

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Kernel is one application-kernel definition: a fixed benchmark run
// repeatedly with identical inputs at several node counts.
type Kernel struct {
	Name       string
	NodeCounts []int
	// BaseWall is the healthy mean wall time (seconds) on one node.
	BaseWall float64
	// ScalingExp is the strong-scaling exponent: wall(n) =
	// BaseWall / n^ScalingExp (1 = perfect scaling).
	ScalingExp float64
	// Noise is the run-to-run lognormal sigma of wall time.
	Noise float64
}

// DefaultKernels returns a kernel suite resembling the XDMoD set (NWChem,
// NAMD, GROMACS, HPCC, IOR, Graph500 application kernels).
func DefaultKernels() []Kernel {
	return []Kernel{
		{"nwchem", []int{1, 2, 4, 8}, 1800, 0.85, 0.05},
		{"namd", []int{1, 2, 4, 8}, 1200, 0.90, 0.04},
		{"gromacs", []int{1, 2, 4, 8}, 900, 0.88, 0.04},
		{"hpcc", []int{1, 2, 4, 8}, 600, 0.70, 0.06},
		{"ior", []int{1, 2, 4}, 300, 0.30, 0.12},
		{"graph500", []int{1, 2, 4, 8}, 700, 0.55, 0.07},
	}
}

// Run is one completed application-kernel job.
type Run struct {
	Kernel   string
	Nodes    int
	Seq      int // submission sequence number
	Wall     float64
	Degraded bool // generation-side truth: run during a degraded period
}

// ExpectedWall returns the healthy mean wall time at a node count.
func (k Kernel) ExpectedWall(nodes int) float64 {
	return k.BaseWall / math.Pow(float64(nodes), k.ScalingExp)
}

// Degradation describes a performance regression injected into the
// simulated stream (e.g. a failing filesystem or misconfigured fabric).
type Degradation struct {
	StartSeq int     // first affected submission
	EndSeq   int     // last affected submission (inclusive; <=0 = open)
	Factor   float64 // wall-time multiplier (>1 = slower)
}

func (d Degradation) active(seq int) bool {
	if seq < d.StartSeq {
		return false
	}
	return d.EndSeq <= 0 || seq <= d.EndSeq
}

// Simulate generates runs sequential submissions of the kernel at each of
// its node counts, applying any active degradations.
func (k Kernel) Simulate(r *rng.Rand, runs int, degs []Degradation) []Run {
	var out []Run
	for seq := 0; seq < runs; seq++ {
		factor := 1.0
		degraded := false
		for _, d := range degs {
			if d.active(seq) {
				factor *= d.Factor
				degraded = true
			}
		}
		for _, n := range k.NodeCounts {
			wall := k.ExpectedWall(n) * factor * r.LogNormal(0, k.Noise)
			out = append(out, Run{Kernel: k.Name, Nodes: n, Seq: seq, Wall: wall, Degraded: degraded})
		}
	}
	return out
}

// CUSUM is a one-sided cumulative-sum change detector on wall times, the
// process-control algorithm that flags under-performing kernels.
type CUSUM struct {
	// Target is the in-control mean (healthy wall time).
	Target float64
	// Slack is the allowance k in standard-deviation units (default 0.5).
	Slack float64
	// Threshold is the alarm level h in standard-deviation units
	// (default 5).
	Threshold float64
	// Sigma is the in-control standard deviation.
	Sigma float64

	sum float64
}

// NewCUSUM calibrates a detector from a healthy baseline sample. A flat
// baseline floors sigma at 1 % of the mean, and at 1e-9 when the mean is
// zero too, so the statistic stays a number.
func NewCUSUM(baseline []float64) (*CUSUM, error) {
	if len(baseline) < 2 {
		return nil, fmt.Errorf("appkernel: need at least 2 baseline runs")
	}
	var mean, m2 float64
	for i, v := range baseline {
		delta := v - mean
		mean += delta / float64(i+1)
		m2 += delta * (v - mean)
	}
	sigma := math.Sqrt(m2 / float64(len(baseline)))
	if sigma == 0 {
		sigma = mean * 0.01
		if sigma == 0 {
			sigma = 1e-9
		}
	}
	return &CUSUM{Target: mean, Slack: 0.5, Threshold: 5, Sigma: sigma}, nil
}

// Observe feeds one wall time; it returns true when the detector alarms
// (the kernel is consistently slower than baseline). The statistic resets
// on alarm.
func (c *CUSUM) Observe(wall float64) bool {
	z := (wall - c.Target) / c.Sigma
	c.sum += z - c.Slack
	if c.sum < 0 {
		c.sum = 0
	}
	if c.sum > c.Threshold {
		c.sum = 0
		return true
	}
	return false
}

// Value returns the current CUSUM statistic (in sigma units).
func (c *CUSUM) Value() float64 { return c.sum }

// Monitor runs a CUSUM detector per (kernel, node-count) stream and
// collects alarms.
type Monitor struct {
	detectors map[string]*CUSUM
	// Alarms maps stream key -> sequence numbers that alarmed.
	Alarms map[string][]int
}

// StreamKey identifies a (kernel, nodes) series.
func StreamKey(kernel string, nodes int) string {
	return fmt.Sprintf("%s/%d", kernel, nodes)
}

// NewMonitor calibrates one CUSUM detector per stream from baseline runs
// (healthy history).
func NewMonitor(baseline []Run) (*Monitor, error) {
	byStream := map[string][]float64{}
	for _, r := range baseline {
		k := StreamKey(r.Kernel, r.Nodes)
		byStream[k] = append(byStream[k], r.Wall)
	}
	m := &Monitor{detectors: map[string]*CUSUM{}, Alarms: map[string][]int{}}
	for k, walls := range byStream {
		det, err := NewCUSUM(walls)
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", k, err)
		}
		m.detectors[k] = det
	}
	return m, nil
}

// Observe feeds one run; returns true if that stream alarmed.
func (m *Monitor) Observe(r Run) bool {
	key := StreamKey(r.Kernel, r.Nodes)
	det, ok := m.detectors[key]
	if !ok {
		return false
	}
	if det.Observe(r.Wall) {
		m.Alarms[key] = append(m.Alarms[key], r.Seq)
		return true
	}
	return false
}
