package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// TestMapOrdered verifies results land in task order at every worker
// count.
func TestMapOrdered(t *testing.T) {
	for _, w := range []int{0, 1, 2, 7, 64} {
		out, err := Map(w, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

// TestMapSeededDeterminism checks the headline guarantee: the same seeded
// fan-out is bit-identical at GOMAXPROCS=1 and GOMAXPROCS=8, at any
// worker count, even when tasks draw different amounts of randomness.
func TestMapSeededDeterminism(t *testing.T) {
	run := func(procs, workers int) []float64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		root := rng.New(42)
		out, err := MapSeeded(root, workers, 200, func(i int, r *rng.Rand) (float64, error) {
			// Draw a task-dependent amount so any cross-task stream
			// leakage would shift later values.
			sum := 0.0
			for k := 0; k <= i%17; k++ {
				sum += r.Normal()
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1, 1)
	for _, tc := range []struct{ procs, workers int }{{1, 8}, {8, 1}, {8, 8}, {8, 3}, {8, 0}} {
		got := run(tc.procs, tc.workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS=%d workers=%d: out[%d] = %v, want %v (serial)",
					tc.procs, tc.workers, i, got[i], want[i])
			}
		}
	}
}

// TestSplitIndependence verifies the parent generator is not advanced by
// a seeded fan-out, so surrounding serial code is unperturbed.
func TestSplitIndependence(t *testing.T) {
	a, b := rng.New(7), rng.New(7)
	if _, err := MapSeeded(a, 4, 50, func(i int, r *rng.Rand) (uint64, error) {
		return r.Uint64(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("MapSeeded advanced the parent generator")
	}
}

// TestBlocks checks Blocks covers [0, n) exactly once in consecutive
// blocks of at most size, ending mid-block or on a boundary, at any
// worker count, and that an empty range runs nothing.
func TestBlocks(t *testing.T) {
	for _, w := range []int{1, 4} {
		for _, n := range []int{0, 1, 127, 128, 129, 300} {
			seen := make([]int32, n)
			var calls atomic.Int64
			err := Blocks(w, n, 128, func(lo, hi int) error {
				calls.Add(1)
				if lo%128 != 0 || hi-lo < 1 || hi-lo > 128 || (hi-lo < 128 && hi != n) {
					return fmt.Errorf("block [%d, %d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", w, n, err)
			}
			if want := int64((n + 127) / 128); calls.Load() != want {
				t.Fatalf("workers=%d n=%d: %d blocks, want %d", w, n, calls.Load(), want)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", w, n, i, c)
				}
			}
		}
	}
}

// TestErrorPropagation checks the smallest-index error wins at any worker
// count, even when a later task fails first in wall time.
func TestErrorPropagation(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		err := ForEach(w, 50, func(i int) error {
			switch i {
			case 3:
				time.Sleep(10 * time.Millisecond)
				return fmt.Errorf("task %d", i)
			case 9:
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3" {
			t.Fatalf("workers=%d: err = %v, want task 3", w, err)
		}
	}
}

// TestEarlyExit verifies a failure stops dispatch: tasks far beyond the
// failing index never start.
func TestEarlyExit(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	err := ForEach(2, 10000, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("%d tasks started after early failure", n)
	}
}

// TestCancellation verifies external context cancellation stops dispatch
// and surfaces ctx.Err().
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	err := ForEachCtx(ctx, 2, 10000, func(ctx context.Context, i int) error {
		if started.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("%d tasks started after cancellation", n)
	}
}

// TestTaskErrorBeatsCancellation: when a task fails and the context is
// also cancelled, the task error is reported.
func TestTaskErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := ForEachCtx(ctx, 3, 100, func(ctx context.Context, i int) error {
		if i == 2 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestPreCancelled: an already-cancelled context runs nothing.
func TestPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEachCtx(ctx, 4, 10, func(ctx context.Context, i int) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("task ran under a pre-cancelled context")
	}
}

// TestEmptyAndBounds covers n = 0 and worker normalization.
func TestEmptyAndBounds(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("no") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	out, err := Map(100, 3, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 {
		t.Fatalf("Map with workers > n: %v %v", out, err)
	}
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(5); w != 5 {
		t.Fatalf("Workers(5) = %d", w)
	}
}

// TestForEachSeeded mirrors MapSeeded for slot-writing callers.
func TestForEachSeeded(t *testing.T) {
	got := make([]uint64, 20)
	if err := ForEachSeeded(rng.New(3), 4, 20, func(i int, r *rng.Rand) error {
		got[i] = r.Uint64()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	root := rng.New(3)
	for i := range got {
		if want := root.Split(uint64(i)).Uint64(); got[i] != want {
			t.Fatalf("slot %d = %d, want %d", i, got[i], want)
		}
	}
}
