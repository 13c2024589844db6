package taccstats

import (
	"repro/internal/apps"
	"repro/internal/rng"
)

// Config holds the collector and machine parameters. The defaults mirror
// TACC Stampede: 16-core Sandy Bridge nodes at 2.7 GHz, 10-minute cron
// collection, USER_HZ 100 kernel CPU accounting.
type Config struct {
	Period       int64   // collection period in seconds
	CoresPerNode int     // cores per compute node
	ClockHz      float64 // core clock frequency
	UserHz       float64 // kernel CPU accounting ticks per second
}

// DefaultConfig returns the Stampede-like configuration.
func DefaultConfig() Config {
	return Config{Period: 600, CoresPerNode: 16, ClockHz: 2.7e9, UserHz: 100}
}

// JobInfo identifies the job being collected.
type JobInfo struct {
	ID    string
	Start int64 // unix seconds
	Hosts []string
}

// Collect simulates the collector on every node of a job and returns the
// raw archive: a begin sample at the prolog, wall-clock-aligned cron
// samples, and an end sample at the epilog. Counters begin from arbitrary
// per-node bases and hardware counters wrap at 48 bits, exactly the
// conditions the summarizer must handle.
func Collect(cfg Config, job JobInfo, d *apps.JobDraw, r *rng.Rand) *Archive {
	if cfg.Period <= 0 {
		cfg = DefaultConfig()
	}
	end := job.Start + int64(d.WallSeconds)
	if end <= job.Start {
		end = job.Start + 1
	}
	times := sampleTimes(job.Start, end, cfg.Period)

	// Catastrophe: CPU activity collapses on every node at a point in the
	// second half-ish of the run and never recovers (a hung MPI job).
	collapseAt := int64(-1)
	if d.Catastrophe {
		frac := 0.3 + 0.6*r.Float64()
		collapseAt = job.Start + int64(frac*float64(end-job.Start))
	}

	a := &Archive{JobID: job.ID, Nodes: make([]NodeArchive, len(job.Hosts))}
	for ni, host := range job.Hosts {
		nr := r.Split(uint64(ni))
		node := d.NodeRates(nr)
		counters := newCounterState(nr)
		na := NodeArchive{Host: host, JobID: job.ID, Samples: make([]Sample, 0, len(times))}
		prev := job.Start
		for si, t := range times {
			marker := MarkerCron
			switch si {
			case 0:
				marker = MarkerBegin
			case len(times) - 1:
				marker = MarkerEnd
			}
			if si > 0 {
				dt := float64(t - prev)
				cpuScale := 1.0
				if collapseAt >= 0 && prev >= collapseAt {
					cpuScale = 0.02
				} else if collapseAt >= 0 && t > collapseAt {
					// interval straddles the collapse: pro-rate
					healthy := float64(collapseAt-prev) / float64(t-prev)
					cpuScale = healthy + 0.02*(1-healthy)
				}
				progress := (float64(prev+t)/2 - float64(job.Start)) / float64(end-job.Start)
				iv := d.PerturbInterval(nr.Split(uint64(si)), node, cpuScale, progress)
				counters.advance(cfg, iv, dt)
			}
			na.Samples = append(na.Samples, Sample{Time: t, Marker: marker, Records: counters.records(cfg, node, d)})
			prev = t
		}
		a.Nodes[ni] = na
	}
	return a
}

// sampleTimes returns start, then cron ticks aligned to multiples of period
// strictly inside (start, end), then end.
func sampleTimes(start, end, period int64) []int64 {
	times := []int64{start}
	tick := (start/period + 1) * period
	for ; tick < end; tick += period {
		times = append(times, tick)
	}
	times = append(times, end)
	return times
}

// counterState holds one node's cumulative counters. Fractional parts are
// accumulated in float64 and truncated at read time, matching how real
// counters integrate continuous rates.
type counterState struct {
	cpuUser, cpuSys, cpuIdle              float64
	cycles, instructions, l1dLoads, flops float64
	memBW                                 float64
	netTx, netRx                          float64
	ibRx, ibTx                            float64
	nfsW, nfsR                            float64
	lliteW, lliteR                        float64
	lnetTx, lnetRx                        float64
	rdIOs, rdBytes, wrBytes               float64
	memGauge                              uint64
}

// newCounterState seeds the counters with arbitrary bases: the node has
// been up for days and its counters carry history from earlier jobs.
func newCounterState(r *rng.Rand) *counterState {
	base := func(scale float64) float64 { return r.Float64() * scale }
	return &counterState{
		cpuUser: base(1e10), cpuSys: base(1e9), cpuIdle: base(1e10),
		cycles: base(float64(pmcMask)), instructions: base(float64(pmcMask)),
		l1dLoads: base(float64(pmcMask)), flops: base(float64(pmcMask)),
		memBW: base(1e15), netTx: base(1e12), netRx: base(1e12),
		ibRx: base(1e13), ibTx: base(1e13),
		nfsW: base(1e10), nfsR: base(1e10),
		lliteW: base(1e12), lliteR: base(1e12),
		lnetTx: base(1e12), lnetRx: base(1e12),
		rdIOs: base(1e8), rdBytes: base(1e12), wrBytes: base(1e12),
	}
}

// advance integrates the interval rates iv over dt seconds.
func (c *counterState) advance(cfg Config, iv [apps.NumMetrics]float64, dt float64) {
	cores := float64(cfg.CoresPerNode)
	totalTicks := cores * cfg.UserHz * dt
	c.cpuUser += iv[apps.CPUUser] * totalTicks
	c.cpuSys += iv[apps.CPUSystem] * totalTicks
	c.cpuIdle += iv[apps.CPUIdle] * totalTicks

	active := iv[apps.CPUUser] + iv[apps.CPUSystem]
	cyc := cfg.ClockHz * cores * active * dt
	c.cycles += cyc
	c.instructions += cyc / iv[apps.CPI]
	c.l1dLoads += cyc / iv[apps.CPLD]
	c.flops += iv[apps.Flops] * dt

	c.memBW += iv[apps.MemBW] * dt
	c.memGauge = uint64(iv[apps.MemUsed])
	c.netTx += iv[apps.EthTx] * dt
	c.netRx += iv[apps.EthTx] * 0.9 * dt
	c.ibRx += iv[apps.IBRx] * dt
	c.ibTx += iv[apps.IBTx] * dt
	c.nfsW += iv[apps.HomeWrite] * dt
	c.nfsR += iv[apps.HomeWrite] * 0.3 * dt
	c.lliteW += iv[apps.ScratchWrite] * dt
	c.lliteR += iv[apps.ScratchWrite] * 0.4 * dt
	c.lnetTx += iv[apps.LustreTx] * dt
	c.lnetRx += iv[apps.LustreTx] * 0.8 * dt
	c.rdIOs += iv[apps.DiskReadIOPS] * dt
	c.rdBytes += iv[apps.DiskReadBytes] * dt
	c.wrBytes += iv[apps.DiskWriteBytes] * dt
}

// records renders the current counter state as device records. Hardware
// performance counters are masked to 48 bits (rollover happens here).
func (c *counterState) records(cfg Config, node [apps.NumMetrics]float64, d *apps.JobDraw) []Record {
	u := func(f float64) uint64 { return uint64(f) }
	pmc := func(f float64) uint64 { return uint64(f) & pmcMask }
	memGauge := c.memGauge
	if memGauge == 0 {
		memGauge = uint64(node[apps.MemUsed]) // before the first interval
	}
	return []Record{
		{DevCPU, []uint64{u(c.cpuUser), u(c.cpuSys), u(c.cpuIdle)}},
		{DevPMC, []uint64{pmc(c.cycles), pmc(c.instructions), pmc(c.l1dLoads), pmc(c.flops)}},
		{DevMem, []uint64{memGauge, u(c.memBW)}},
		{DevNet, []uint64{u(c.netTx), u(c.netRx)}},
		{DevIB, []uint64{u(c.ibRx), u(c.ibTx)}},
		{DevNFS, []uint64{u(c.nfsW), u(c.nfsR)}},
		{DevLLite, []uint64{u(c.lliteW), u(c.lliteR)}},
		{DevLNet, []uint64{u(c.lnetTx), u(c.lnetRx)}},
		{DevBlock, []uint64{u(c.rdIOs), u(c.rdBytes), u(c.wrBytes)}},
	}
}
