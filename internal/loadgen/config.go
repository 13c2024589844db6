package loadgen

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/kvspec"
)

// Config parameterizes one open-loop load run. The canonical wire form
// is the spec string (ParseSpec / Spec), which is supremm-load's whole
// command line and which the soak harness records verbatim in its JSON
// report so a run is reproducible from the artifact alone.
type Config struct {
	// BaseURL is the target server root, e.g. http://127.0.0.1:8080.
	BaseURL string
	// RPS is the steady-state arrival rate (arrivals per second).
	RPS float64
	// Duration is the total run length.
	Duration time.Duration
	// Ramp linearly grows the arrival rate from 0 to RPS over this
	// prefix of the run (0 = start at full rate).
	Ramp time.Duration
	// BatchMix is the fraction of arrivals sent to /api/classify/batch
	// instead of /api/classify, decided per arrival by seeded dice.
	BatchMix float64
	// DiscoverMix is the fraction of arrivals sent to
	// /api/discover/assign (requires the target to have a discovery fit
	// loaded). The same per-arrival dice decide the route, so
	// BatchMix + DiscoverMix must not exceed 1; the remainder goes to
	// /api/classify.
	DiscoverMix float64
	// BatchSize is the row count of each batch request.
	BatchSize int
	// Threshold is the classification threshold sent with every request.
	Threshold float64
	// Seed drives every random decision (row values, batch/single mix),
	// so two runs with one seed issue byte-identical request bodies in
	// the same arrival order.
	Seed uint64
	// Timeout is the per-request client timeout.
	Timeout time.Duration
	// MaxInFlight caps concurrently outstanding requests client-side.
	// Open-loop arrivals beyond the cap are counted as dropped, not
	// silently serialized -- closed-loop backpressure would mask the
	// very overload behaviour the generator exists to measure.
	MaxInFlight int
}

// Defaults for spec keys the caller omits.
const (
	defBatchSize   = 32
	defThreshold   = 0.5
	defTimeout     = 10 * time.Second
	defMaxInFlight = 512
)

// Validate checks a config for use by Run.
func (c Config) Validate() error {
	switch {
	case !serverRoot(c.BaseURL):
		return fmt.Errorf("loadgen: url %q is not an http(s):// server root", c.BaseURL)
	case math.IsNaN(c.RPS) || c.RPS <= 0 || c.RPS > 1e6:
		return fmt.Errorf("loadgen: rps %v outside (0, 1e6]", c.RPS)
	case c.Duration <= 0:
		return fmt.Errorf("loadgen: dur must be positive, got %v", c.Duration)
	case c.Ramp < 0 || c.Ramp > c.Duration:
		return fmt.Errorf("loadgen: ramp %v outside [0, dur=%v]", c.Ramp, c.Duration)
	case math.IsNaN(c.BatchMix) || c.BatchMix < 0 || c.BatchMix > 1:
		return fmt.Errorf("loadgen: mix %v outside [0,1]", c.BatchMix)
	case math.IsNaN(c.DiscoverMix) || c.DiscoverMix < 0 || c.DiscoverMix > 1:
		return fmt.Errorf("loadgen: dmix %v outside [0,1]", c.DiscoverMix)
	case c.BatchMix+c.DiscoverMix > 1:
		return fmt.Errorf("loadgen: mix+dmix = %v exceeds 1", c.BatchMix+c.DiscoverMix)
	case c.BatchSize <= 0 || c.BatchSize > 4096:
		return fmt.Errorf("loadgen: batch %d outside [1,4096]", c.BatchSize)
	case math.IsNaN(c.Threshold) || c.Threshold < 0 || c.Threshold > 1:
		return fmt.Errorf("loadgen: threshold %v outside [0,1]", c.Threshold)
	case c.Timeout <= 0:
		return fmt.Errorf("loadgen: timeout must be positive, got %v", c.Timeout)
	case c.MaxInFlight <= 0:
		return fmt.Errorf("loadgen: inflight must be positive, got %d", c.MaxInFlight)
	}
	return nil
}

// serverRoot reports whether u can be url=, the supremm-serve HTTP root
// both spec grammars name.
func serverRoot(u string) bool {
	return strings.HasPrefix(u, "http://") || strings.HasPrefix(u, "https://")
}

// table is the config's spec grammar; ParseSpec and Spec both derive
// from it.
func (c *Config) table() kvspec.Table {
	return kvspec.Table{Prefix: "loadgen", Noun: "spec", Fields: []kvspec.Field{
		{Key: "url", Ptr: &c.BaseURL},
		{Key: "rps", Ptr: &c.RPS},
		{Key: "dur", Ptr: &c.Duration},
		{Key: "ramp", Ptr: &c.Ramp},
		{Key: "mix", Ptr: &c.BatchMix},
		{Key: "dmix", Ptr: &c.DiscoverMix},
		{Key: "batch", Ptr: &c.BatchSize},
		{Key: "threshold", Ptr: &c.Threshold},
		{Key: "seed", Ptr: &c.Seed},
		{Key: "timeout", Ptr: &c.Timeout},
		{Key: "inflight", Ptr: &c.MaxInFlight},
	}}
}

// ParseSpec parses a load spec: comma- or whitespace-separated k=v
// pairs, e.g.
//
//	url=http://127.0.0.1:8080,rps=200,dur=30s,ramp=5s,mix=0.25,batch=64,seed=7
//
// Keys: url, rps, dur, ramp, mix, dmix, batch, threshold, seed,
// timeout, inflight. url, rps, and dur are required; the rest default
// sanely.
// The returned config always passes Validate.
func ParseSpec(s string) (Config, error) {
	cfg := Config{
		BatchSize:   defBatchSize,
		Threshold:   defThreshold,
		Timeout:     defTimeout,
		MaxInFlight: defMaxInFlight,
	}
	seen, err := cfg.table().Parse(s)
	if err != nil {
		return Config{}, err
	}
	if len(seen) == 0 {
		return Config{}, fmt.Errorf("loadgen: empty spec")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Spec renders the config canonically; ParseSpec(c.Spec()) returns an
// identical config (keys sorted, durations in Go syntax).
func (c Config) Spec() string { return c.table().Render() }
