package obs

import (
	"math"
	"runtime/metrics"
	"strconv"
)

// runtimeSamples is the fixed runtime/metrics read set CollectRuntime
// scrapes. Reading a batch is a single stop-the-world-free sample; any
// metric the running toolchain does not export comes back KindBad and
// is skipped, so the set degrades gracefully across Go versions.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/sched/latencies:seconds",
	"/gc/pauses:seconds",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
}

// runtimeQuantiles are the distribution cut points exported for the GC
// pause and scheduler latency histograms.
var runtimeQuantiles = []float64{0.5, 0.9, 0.99}

// CollectRuntime samples the Go runtime (runtime/metrics) into reg as
// gauges: goroutine count, heap bytes, GC cycle count, and the GC pause
// and scheduler-latency distributions as quantile-labeled gauges
// (go_gc_pause_seconds{q="0.99"}, ...). Distributions are rendered as
// quantiles rather than Prometheus histograms because runtime/metrics
// exposes pre-bucketed counts whose layout is runtime-defined, not
// observation streams this registry's fixed-bucket histograms could
// replay. Call it from the /metrics handler so every scrape is fresh;
// it allocates only on the first call per registry and is nil-safe.
func CollectRuntime(reg *Registry) {
	if reg == nil {
		return
	}
	reg.Help("go_goroutines", "Live goroutines (runtime/metrics, sampled per scrape).")
	reg.Help("go_gc_cycles_total", "Completed GC cycles (runtime/metrics, sampled per scrape).")
	reg.Help("go_heap_bytes", "Bytes of live heap objects (runtime/metrics, sampled per scrape).")
	reg.Help("go_memory_total_bytes", "Bytes of memory mapped by the Go runtime (runtime/metrics, sampled per scrape).")
	reg.Help("go_gc_pause_seconds", "GC pause distribution quantiles (runtime/metrics).")
	reg.Help("go_gc_pause_seconds_count", "GC pauses observed (runtime/metrics).")
	reg.Help("go_sched_latency_seconds", "Goroutine scheduling latency quantiles (runtime/metrics).")
	reg.Help("go_sched_latency_seconds_count", "Goroutine scheduling latencies observed (runtime/metrics).")
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v := float64(s.Value.Uint64())
			switch s.Name {
			case "/sched/goroutines:goroutines":
				reg.Gauge("go_goroutines").Set(v)
			case "/gc/cycles/total:gc-cycles":
				reg.Gauge("go_gc_cycles_total").Set(v)
			case "/memory/classes/heap/objects:bytes":
				reg.Gauge("go_heap_bytes").Set(v)
			case "/memory/classes/total:bytes":
				reg.Gauge("go_memory_total_bytes").Set(v)
			}
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			var family string
			switch s.Name {
			case "/sched/latencies:seconds":
				family = "go_sched_latency_seconds"
			case "/gc/pauses:seconds":
				family = "go_gc_pause_seconds"
			default:
				continue
			}
			for _, q := range runtimeQuantiles {
				reg.Gauge(family, "q", strconv.FormatFloat(q, 'g', -1, 64)).
					Set(histQuantile(h, q))
			}
			reg.Gauge(family + "_count").Set(float64(histCount(h)))
		}
	}
}

// histCount sums a runtime histogram's observations.
func histCount(h *metrics.Float64Histogram) uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// histQuantile estimates quantile q from a runtime/metrics histogram by
// walking the cumulative counts and returning the upper bound of the
// bucket the quantile falls in (0 for an empty histogram; the last
// finite bound stands in for a +Inf tail).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	total := histCount(h)
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	lastFinite := 0.0
	for i, c := range h.Counts {
		// Buckets[i], Buckets[i+1] bound Counts[i]; the edges may be ±Inf.
		upper := h.Buckets[i+1]
		if !math.IsInf(upper, 0) {
			lastFinite = upper
		}
		seen += c
		if seen > rank {
			if math.IsInf(upper, 0) {
				return lastFinite
			}
			return upper
		}
	}
	return lastFinite
}
