// Package obs is the repo's dependency-free observability subsystem:
// a metrics registry (atomic counters, gauges, fixed-bucket histograms
// with Prometheus text exposition), lightweight hierarchical span tracing
// with per-stage wall and process-CPU timings, and a leveled structured
// (key=value) logger.
//
// Every entry point is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Histogram, *Span or *Logger are no-ops (or return nil), so
// library code can be instrumented unconditionally and pay near-zero cost
// when no observer is attached. Instrumentation never touches any RNG
// stream, so enabling it cannot perturb the deterministic experiment
// results; core's TestInstrumentedPipelineParity asserts exactly that.
package obs
