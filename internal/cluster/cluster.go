// Package cluster models a Stampede-like HPC machine and its batch
// workload: job arrivals over a year of operation, application selection
// from the community catalogue at the native mix (plus the Uncategorized
// and NA custom-code populations), node assignment, queue wait times, and
// the exit-code model behind the paper's (negative) success/failure
// classification result.
package cluster

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/rng"
)

// Machine describes the compute hardware.
type Machine struct {
	Name         string
	Racks        int
	NodesPerRack int
	CoresPerNode int
}

// Stampede returns the machine model for TACC Stampede (6,400 nodes of 16
// cores, organized here as 160 racks of 40).
func Stampede() Machine {
	return Machine{Name: "stampede", Racks: 160, NodesPerRack: 40, CoresPerNode: 16}
}

// TotalNodes returns the machine's node count.
func (m Machine) TotalNodes() int { return m.Racks * m.NodesPerRack }

// Hostname returns the name of node i (0-based across the machine).
func (m Machine) Hostname(i int) string {
	return fmt.Sprintf("c%03d-%03d.%s.tacc.utexas.edu", i/m.NodesPerRack, i%m.NodesPerRack, m.Name)
}

// Population tags which labeling population a job belongs to.
type Population int

// The three populations of the paper's Stampede 2014 dataset.
const (
	PopCommunity     Population = iota // Lariat record matches a community app
	PopUncategorized                   // Lariat record exists, executable unknown
	PopNA                              // launched outside ibrun, no Lariat record
)

func (p Population) String() string {
	switch p {
	case PopCommunity:
		return "community"
	case PopUncategorized:
		return "uncategorized"
	case PopNA:
		return "na"
	}
	return "invalid"
}

// Job is one scheduled batch job with its ground-truth generating
// application. The App pointer is generation-side truth used only for
// evaluation; the classifier sees labels exclusively via Lariat matching.
type Job struct {
	ID         string
	User       string
	App        *apps.App
	Draw       *apps.JobDraw
	Population Population

	Submit int64 // unix seconds
	Start  int64
	Hosts  []string

	// ExitCode is the shell exit status of the job script, NOT of the
	// application: most non-zero exits come from trailing script
	// operations (grep/rm/cp) unrelated to anything SUPReMM measures.
	ExitCode int

	// AppFailed records whether the application itself failed (the
	// catastrophe path); a subset of non-zero exits.
	AppFailed bool
}

// Config controls workload generation.
type Config struct {
	Seed uint64

	// Population fractions; the remainder is the community population.
	// Paper: 238,929/1,683,850 = 0.142 Uncategorized and
	// 475,280/1,683,850 = 0.282 NA.
	UncategorizedFrac float64
	NAFrac            float64

	// Community restricts community-population sampling to these apps
	// (nil means the full catalogue) at their native mix weights.
	Community []apps.App
}

const (
	// yearStart is the unix time the workload year begins (jobs start
	// uniformly within the following 365 days): 2014-01-01T00:00:00Z.
	yearStart = 1388534400
	// scriptFailProb is the probability a job's trailing script
	// operations return a non-zero status regardless of how the
	// application behaved. This is what makes exit codes unlearnable
	// from performance data.
	scriptFailProb = 0.18
)

// DefaultConfig mirrors the paper's Stampede 2014 dataset proportions.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:              seed,
		UncategorizedFrac: 0.142,
		NAFrac:            0.282,
	}
}

// Generator produces a deterministic stream of jobs.
type Generator struct {
	cfg       Config
	machine   Machine
	r         *rng.Rand
	community []apps.App
	mix       *rng.Sampler
	uncat     *apps.CustomPool
	na        *apps.CustomPool
	nextID    int
}

// NewGenerator builds a workload generator for the machine.
func NewGenerator(machine Machine, cfg Config) *Generator {
	r := rng.New(cfg.Seed)
	community := cfg.Community
	if community == nil {
		community = apps.Catalog()
	}
	g := &Generator{
		cfg:       cfg,
		machine:   machine,
		r:         r.Split(1),
		community: community,
		mix:       rng.NewSampler(apps.MixWeights(community)),
		nextID:    1000000,
	}
	if cfg.UncategorizedFrac > 0 {
		g.uncat = apps.NewCustomPool(r.Split(2), apps.DefaultUncategorizedConfig())
	}
	if cfg.NAFrac > 0 {
		g.na = apps.NewCustomPool(r.Split(3), apps.DefaultNAConfig())
	}
	return g
}

// Next generates the next job in the stream.
func (g *Generator) Next() *Job {
	g.nextID++
	jr := g.r.Split(uint64(g.nextID))

	var app *apps.App
	pop := PopCommunity
	switch x := jr.Float64(); {
	case x < g.cfg.NAFrac && g.na != nil:
		pop = PopNA
		app = g.na.Sample(jr)
	case x < g.cfg.NAFrac+g.cfg.UncategorizedFrac && g.uncat != nil:
		pop = PopUncategorized
		app = g.uncat.Sample(jr)
	default:
		app = &g.community[g.mix.Sample(jr)]
	}

	draw := app.Sig.Draw(jr)
	hosts := make([]string, draw.Nodes)
	total := g.machine.TotalNodes()
	base := jr.Intn(total)
	for i := range hosts {
		hosts[i] = g.machine.Hostname((base + i) % total)
	}

	start := yearStart + int64(jr.Float64()*365*24*3600)
	// Queue wait grows with requested node count.
	wait := jr.LogNormal(5.5, 1.2) * (1 + float64(draw.Nodes)/64)

	j := &Job{
		ID:         fmt.Sprintf("%d", g.nextID),
		User:       fmt.Sprintf("user%04d", jr.Intn(1500)),
		App:        app,
		Draw:       draw,
		Population: pop,
		Submit:     start - int64(wait),
		Start:      start,
		Hosts:      hosts,
	}

	// Exit-code model: application failures (catastrophes) propagate a
	// non-zero status, but the bulk of non-zero exits are trailing script
	// operations with no performance correlate.
	j.AppFailed = draw.Catastrophe && jr.Bool(0.8)
	switch {
	case j.AppFailed:
		j.ExitCode = 1 + jr.Intn(126)
	case jr.Bool(scriptFailProb):
		j.ExitCode = 1 + jr.Intn(2)
	default:
		j.ExitCode = 0
	}
	return j
}

// Generate returns the next n jobs.
func (g *Generator) Generate(n int) []*Job {
	out := make([]*Job, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
