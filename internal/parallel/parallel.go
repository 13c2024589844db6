// Package parallel provides the bounded worker pool and deterministic
// fan-out primitives behind every concurrent hot path in this repo:
// cross-validation folds, one-vs-one SVM pair training, per-tree forest
// construction, pipeline collection/summarization, and the experiment
// runner.
//
// Four properties hold at any worker count and any GOMAXPROCS:
//
//   - Ordered results: Map stores task i's output in slot i, so callers
//     that reduce in index order get bit-identical floating-point sums
//     regardless of completion order.
//   - Independent randomness: MapSeeded derives task i's generator as
//     root.Split(i). The parent generator never advances, so the stream a
//     task sees does not depend on scheduling, worker count, or how much
//     randomness any other task consumed.
//   - Deterministic errors: when tasks fail, the error of the
//     smallest-indexed failing task is returned. Tasks are dispatched in
//     index order and dispatch stops at the first observed failure, so
//     every task below a failing index has started and is awaited; the
//     minimum over completed failures cannot depend on scheduling.
//   - Panic isolation: a panic inside a task is recovered into a
//     *PanicError for that task instead of killing the process, so a
//     poisoned row in a serving batch degrades to an errored request.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// PanicError is a task panic recovered by the pool and surfaced as an
// ordinary per-task error. Before this isolation a panicking task on a
// pool goroutine killed the whole process (no HTTP middleware can catch
// a panic on another goroutine); now the fan-out fails like any errored
// task — smallest-index error semantics included — and the serving path
// turns it into a 500 instead of dying.
type PanicError struct {
	Index int    // task index that panicked
	Value any    // recovered panic value
	Stack []byte // goroutine stack at the point of the panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Index, e.Value)
}

// protect wraps a task function so panics become *PanicError returns.
func protect(fn func(ctx context.Context, i int) error) func(ctx context.Context, i int) error {
	return func(ctx context.Context, i int) (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = &PanicError{Index: i, Value: rec, Stack: debug.Stack()}
			}
		}()
		return fn(ctx, i)
	}
}

// PoolMetrics instruments every pool fan-out in the process: gauges for
// tasks queued and running, counters for completions and failures, and a
// per-task latency histogram. All fields are nil-safe obs metrics.
type PoolMetrics struct {
	Queued      *obs.Gauge
	Running     *obs.Gauge
	Done        *obs.Counter
	Failed      *obs.Counter
	TaskSeconds *obs.Histogram
}

// poolMetrics is the process-wide instrument; nil (the default) means
// uninstrumented and costs one atomic load per fan-out.
var poolMetrics atomic.Pointer[PoolMetrics]

// Instrument registers pool metrics on reg under the pool_* names
// (pool_tasks_queued, pool_tasks_running, pool_tasks_done_total,
// pool_tasks_failed_total, pool_task_seconds). A nil registry disables
// instrumentation. Metrics never touch any RNG stream, so enabling them
// cannot perturb deterministic results.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		poolMetrics.Store(nil)
		return
	}
	reg.Help("pool_tasks_queued", "Worker-pool tasks admitted but not yet started.")
	reg.Help("pool_tasks_running", "Worker-pool tasks currently executing.")
	reg.Help("pool_tasks_done_total", "Worker-pool tasks completed successfully.")
	reg.Help("pool_tasks_failed_total", "Worker-pool tasks that returned an error.")
	reg.Help("pool_task_seconds", "Worker-pool per-task latency in seconds.")
	poolMetrics.Store(&PoolMetrics{
		Queued:      reg.Gauge("pool_tasks_queued"),
		Running:     reg.Gauge("pool_tasks_running"),
		Done:        reg.Counter("pool_tasks_done_total"),
		Failed:      reg.Counter("pool_tasks_failed_total"),
		TaskSeconds: reg.Histogram("pool_task_seconds", nil),
	})
}

// run executes one claimed task under instrumentation (m may be nil).
func (m *PoolMetrics) run(ctx context.Context, i int, fn func(ctx context.Context, i int) error) error {
	if m == nil {
		return fn(ctx, i)
	}
	m.Queued.Dec()
	m.Running.Inc()
	start := time.Now()
	err := fn(ctx, i)
	m.TaskSeconds.ObserveDuration(start)
	m.Running.Dec()
	if err != nil {
		m.Failed.Inc()
	} else {
		m.Done.Inc()
	}
	return err
}

// Timer accumulates wall time and a completion count across concurrent
// tasks with two atomic adds per observation -- the propagation channel
// for per-row serving timings: every row of a batch fan-out observes its
// inference time into the request's Timer regardless of which pool
// goroutine ran it, and the request's wide event reads the totals once
// after the fan-out joins. A nil *Timer is a no-op.
type Timer struct {
	ns atomic.Int64
	n  atomic.Int64
}

// Observe adds one task's elapsed time.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.ns.Add(int64(d))
		t.n.Add(1)
	}
}

// Total returns the summed task time observed so far.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Count returns how many observations landed.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// ForEachCtxTimed is ForEachCtx with per-task timing: each task's wall
// time (successful or not) is observed into timer, so callers get the
// summed compute cost of a fan-out without threading stopwatches through
// every closure. timer may be nil.
func ForEachCtxTimed(ctx context.Context, workers, n int, timer *Timer, fn func(ctx context.Context, i int) error) error {
	return ForEachCtx(ctx, workers, n, func(ctx context.Context, i int) error {
		start := time.Now()
		defer func() { timer.Observe(time.Since(start)) }()
		return fn(ctx, i)
	})
}

// Workers resolves a worker-count knob: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS). On failure the remaining undispatched
// tasks are skipped and the smallest-index error is returned.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, func(_ context.Context, i int) error {
		return fn(i)
	})
}

// Blocks runs fn(lo, hi) over [0, n) cut into consecutive blocks of at
// most size indices, each block one ForEach task: for loops whose
// per-index work is too small to dispatch alone, or that want one
// scratch per block. Errors and panics resolve as in ForEach.
func Blocks(workers, n, size int, fn func(lo, hi int) error) error {
	return ForEach(workers, (n+size-1)/size, func(b int) error {
		lo := b * size
		return fn(lo, min(lo+size, n))
	})
}

// ForEachCtx is ForEach with cancellation: when ctx is cancelled no new
// tasks are dispatched and, if no task itself failed, ctx.Err() is
// returned. Tasks that want to stop mid-flight can poll the passed
// context, which is also cancelled as soon as any task fails.
func ForEachCtx(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	fn = protect(fn)
	w := Workers(workers)
	if w > n {
		w = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	st := &dispatcher{n: n, firstIdx: n}
	m := poolMetrics.Load()
	if m != nil {
		m.Queued.Add(float64(n))
		// Drain whatever never dispatched (early error or cancellation).
		defer func() { m.Queued.Add(-float64(n - st.dispatched())) }()
	}
	if w == 1 {
		// Serial fast path: identical semantics (in-order dispatch, stop
		// at the first failure) without goroutine overhead.
		for i := 0; i < n; i++ {
			if cctx.Err() != nil {
				return ctx.Err()
			}
			st.next = i + 1
			if err := m.run(cctx, i, fn); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := st.claim(cctx)
				if !ok {
					return
				}
				if err := m.run(cctx, i, fn); err != nil {
					st.fail(i, err)
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	if st.firstErr != nil {
		return st.firstErr
	}
	return ctx.Err()
}

// dispatcher hands out task indices in order and records the
// smallest-index failure.
type dispatcher struct {
	mu       sync.Mutex
	next     int
	n        int
	stopped  bool
	firstIdx int
	firstErr error
}

func (d *dispatcher) claim(ctx context.Context) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped || d.next >= d.n || ctx.Err() != nil {
		return 0, false
	}
	i := d.next
	d.next++
	return i, true
}

// dispatched returns how many tasks have been handed out.
func (d *dispatcher) dispatched() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next
}

func (d *dispatcher) fail(i int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stopped = true
	if i < d.firstIdx {
		d.firstIdx, d.firstErr = i, err
	}
}

// Map runs fn over [0, n) on at most workers goroutines and returns the
// results in task order. On error the partial results are dropped and the
// smallest-index error is returned.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapSeeded is Map with a per-task deterministic RNG stream: task i
// receives root.Split(i). The parent generator is only read, never
// advanced, so results are bit-identical at any worker count; the caller
// must not use root concurrently for anything else while MapSeeded runs.
func MapSeeded[T any](root *rng.Rand, workers, n int, fn func(i int, r *rng.Rand) (T, error)) ([]T, error) {
	return Map(workers, n, func(i int) (T, error) {
		return fn(i, root.Split(uint64(i)))
	})
}

// ForEachSeeded is ForEach with a per-task RNG stream, for tasks that
// write into caller-owned slots instead of returning values.
func ForEachSeeded(root *rng.Rand, workers, n int, fn func(i int, r *rng.Rand) error) error {
	return ForEach(workers, n, func(i int) error {
		return fn(i, root.Split(uint64(i)))
	})
}
