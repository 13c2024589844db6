package flight

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrBundlesDisabled reports a capture request against a recorder with
// no bundle directory configured.
var ErrBundlesDisabled = errors.New("flight: diagnostic bundles disabled (no bundle directory configured)")

// ErrBundleRateLimited reports an automatic capture suppressed because
// one landed within bundleInterval (operator captures are never limited).
var ErrBundleRateLimited = errors.New("flight: bundle capture rate-limited")

// BundleConfig tunes self-capturing diagnostics. The zero value (no
// Dir) disables them.
type BundleConfig struct {
	// Dir is where bundle directories are created; "" disables capture.
	Dir string
	// Registry, when set, is dumped into each bundle as metrics.prom.
	Registry *obs.Registry
}

// bundleInterval rate-limits automatic (burn/breaker-triggered)
// captures; operator requests via /debug/bundle bypass it.
const bundleInterval = 5 * time.Minute

// Bundle describes one captured diagnostic bundle.
type Bundle struct {
	Dir        string    `json:"dir"`
	Reason     string    `json:"reason"`
	CapturedAt time.Time `json:"capturedAt"`
	Files      []string  `json:"files"`
}

// bundler serializes bundle captures and enforces the rate limit.
type bundler struct {
	cfg   BundleConfig
	rec   *Recorder
	clock func() time.Time

	mu   sync.Mutex // held for the whole of a capture
	last time.Time  // last successful capture (auto rate-limit basis)

	captured    atomic.Uint64
	failed      atomic.Uint64
	rateLimited atomic.Uint64
}

func newBundler(cfg BundleConfig, rec *Recorder, clock func() time.Time) *bundler {
	if cfg.Dir == "" {
		return nil
	}
	return &bundler{cfg: cfg, rec: rec, clock: clock}
}

// sanitizeReason keeps bundle directory names filesystem-safe.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, reason)
}

// Capture snapshots the recorder into a timestamped bundle directory:
// the full event ring (events.json, with the reconciliation stats), the
// SLO state (slo.json), the metrics registry (metrics.prom), and a heap
// profile (heap.pprof). force bypasses the bundleInterval rate limit
// (operator requests). Returns the bundle description or an error;
// captures are serialized, so a Capture waits for one in flight rather
// than interleave with it.
func (r *Recorder) Capture(reason string, force bool) (*Bundle, error) {
	if r == nil || r.bundler == nil {
		return nil, ErrBundlesDisabled
	}
	b := r.bundler
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.clock()
	if !force && b.limited(now) {
		return nil, ErrBundleRateLimited
	}
	return b.capture(reason, now)
}

// TriggerBundle requests an automatic, rate-limited capture without
// blocking the caller (SLO burns and breaker-open transitions fire it
// from hot paths and locked sections). A trigger that arrives while a
// capture is in flight, or within bundleInterval of the last one, is
// counted as rate-limited on the spot and spawns nothing, so a 5xx storm
// cannot grow goroutines with its failure rate.
func (r *Recorder) TriggerBundle(reason string) {
	if r == nil || r.bundler == nil {
		return
	}
	b := r.bundler
	if !b.mu.TryLock() {
		b.rateLimited.Add(1)
		return
	}
	now := b.clock()
	if b.limited(now) {
		b.mu.Unlock()
		return
	}
	// The capture goroutine inherits b.mu and releases it when done.
	go func() {
		defer b.mu.Unlock()
		_, _ = b.capture(reason, now)
	}()
}

// limited reports, and counts, an automatic capture inside
// bundleInterval of the last one. Caller holds b.mu.
func (b *bundler) limited(now time.Time) bool {
	if b.last.IsZero() || now.Sub(b.last) >= bundleInterval {
		return false
	}
	b.rateLimited.Add(1)
	return true
}

// capture writes one bundle stamped now. Caller holds b.mu.
func (b *bundler) capture(reason string, now time.Time) (*Bundle, error) {
	bundle := &Bundle{
		Reason:     reason,
		CapturedAt: now,
		Dir: filepath.Join(b.cfg.Dir, fmt.Sprintf("bundle-%s-%s",
			now.UTC().Format("20060102T150405.000000000Z"), sanitizeReason(reason))),
	}
	if err := os.MkdirAll(bundle.Dir, 0o755); err != nil {
		b.failed.Add(1)
		return nil, fmt.Errorf("flight: creating bundle dir: %w", err)
	}

	write := func(name string, fn func(*os.File) error) error {
		f, err := os.Create(filepath.Join(bundle.Dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		bundle.Files = append(bundle.Files, name)
		return nil
	}

	var errs []error
	errs = append(errs, write("events.json", func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"reason":     reason,
			"capturedAt": now,
			"stats":      b.rec.Stats(),
			"events":     b.rec.Snapshot(),
		})
	}))
	errs = append(errs, write("slo.json", func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(b.rec.SLOStatus())
	}))
	if b.cfg.Registry != nil {
		errs = append(errs, write("metrics.prom", func(f *os.File) error {
			return b.cfg.Registry.WritePrometheus(f)
		}))
	}
	errs = append(errs, write("heap.pprof", func(f *os.File) error {
		return pprof.Lookup("heap").WriteTo(f, 0)
	}))

	if err := errors.Join(errs...); err != nil {
		b.failed.Add(1)
		return bundle, fmt.Errorf("flight: bundle %s incomplete: %w", bundle.Dir, err)
	}
	b.last = now
	b.captured.Add(1)
	return bundle, nil
}

// export publishes capture counters. Nil-safe.
func (b *bundler) export(reg *obs.Registry) {
	if b == nil || reg == nil {
		return
	}
	reg.Help("flight_bundles", "Diagnostic bundle captures by outcome.")
	reg.Gauge("flight_bundles", "outcome", "captured").Set(float64(b.captured.Load()))
	reg.Gauge("flight_bundles", "outcome", "failed").Set(float64(b.failed.Load()))
	reg.Gauge("flight_bundles", "outcome", "rate_limited").Set(float64(b.rateLimited.Load()))
}
