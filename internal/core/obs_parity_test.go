package core

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// digestRecords hashes every job id, label and feature row bit-for-bit.
func digestRecords(t *testing.T, res *PipelineResult) uint64 {
	t.Helper()
	h := fnv.New64a()
	rows := FeaturizeAll(res.Records, DefaultFeatures())
	var b [8]byte
	for i, rec := range res.Records {
		h.Write([]byte(rec.JobID))
		h.Write([]byte(rec.AppLabel))
		for _, v := range rows[i] {
			bits := math.Float64bits(v)
			for k := 0; k < 8; k++ {
				b[k] = byte(bits >> (8 * k))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestInstrumentedPipelineParity asserts that full instrumentation —
// stage spans, registry histograms, pool metrics, structured logging —
// leaves the pipeline output bit-identical to an uninstrumented run.
func TestInstrumentedPipelineParity(t *testing.T) {
	const seed, jobs = 417, 250

	plain, err := RunPipeline(DefaultPipelineConfig(seed, jobs))
	if err != nil {
		t.Fatal(err)
	}
	plainDigest := digestRecords(t, plain)

	reg := obs.NewRegistry()
	parallel.Instrument(reg)
	t.Cleanup(func() { parallel.Instrument(nil) })
	root := obs.NewSpan("pipeline")
	cfg := DefaultPipelineConfig(seed, jobs)
	cfg.Obs = Instrumentation{Span: root, Metrics: reg, Log: nil}
	instrumented, err := RunPipeline(cfg)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if got := digestRecords(t, instrumented); got != plainDigest {
		t.Fatalf("instrumented digest %x != uninstrumented %x", got, plainDigest)
	}

	// The trace must cover every pipeline stage.
	tree := root.Tree()
	stages := map[string]bool{}
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		stages[n.Name] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	for _, want := range []string{"generate", "collect+summarize", "collect", "summarize", "ingest"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (have %v)", want, stages)
		}
	}

	// And the metrics must have actually observed the workload.
	if got := reg.Histogram("pipeline_collect_seconds", nil).Count(); got != jobs {
		t.Errorf("collect histogram count = %d, want %d", got, jobs)
	}
	if got := reg.Histogram("pipeline_summarize_seconds", nil).Count(); got != jobs {
		t.Errorf("summarize histogram count = %d, want %d", got, jobs)
	}
	if got := reg.Counter("pool_tasks_done_total").Value(); got < jobs {
		t.Errorf("pool done = %d, want >= %d", got, jobs)
	}
}
